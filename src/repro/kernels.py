"""The scheduling game's array kernels.

The game solver spends essentially all of its time in three array
kernels: projecting cross-entropy battery populations onto the feasible
trajectory set, scoring those populations under the one quadratic
net-metering cost model (any tariff's buy/sell rate rows, export cap
and sign reading), and the backward dynamic program over appliance
power levels.  They live here, as the methods of the one
:class:`FusedKernels` object that :func:`get_backend` returns (the
:class:`KernelBackend` protocol names them).  Callers look a method up on
that object at each call, so a profiler can wrap the methods in place.

Bitwise contract
----------------
The kernels reproduce the historical op sequences bit for bit on the
inputs the pipeline produces (finite, box-clipped CE populations; finite
DP cost tables).  Those sequences are kept verbatim as a test oracle in
``tests/kernel_oracle.py``, and ``tests/test_kernels.py`` checks every
kernel against it and against the pre-kernel implementations
(``clamp_trajectory_batch``, ``BatteryProblem.cost_batch``) for every
named tariff's rate rows.

Three observations let the kernels shed most of the oracle's allocation
and ufunc-dispatch overhead without changing a single output bit:

- **Clamp**: the CE sampler clips populations to ``[0, capacity]``
  before projection, so the reachability bounds ``max(0, prev - d)`` /
  ``min(capacity, prev + c)`` reduce to ``prev - d`` / ``prev + c``
  (clamping a value already inside ``[0, capacity]`` against the
  un-truncated bound gives the identical result), and the NaN sweep is
  a no-op on finite input.  Each forward step is four ``out=`` ufunc
  calls into two reused buffers.
- **Cost**: ``np.diff`` is plain subtraction, so the trading array can
  be built directly into a preallocated buffer, and the selling branch
  (capped quantity, sign flip) reuses the community-total buffer.
  Operand order matches the oracle and
  :func:`repro.netmetering.cost.customer_cost_terms` exactly.
- **DP**: the oracle loops over levels, keeping a candidate only when
  it is strictly below the best so far.  That keeps the *first* level
  reaching the minimum, which is exactly what ``argmin`` over a level
  axis returns; gathering the winner (rather than ``np.minimum``)
  keeps its sign of zero on exact ties.  One gather builds every
  level's candidates for a slot, over a leading game axis, so a slot
  costs a handful of ufunc dispatches for the whole batch.  The oracle's
  non-finite-cost guard is exact to drop for every cost but ``-inf`` and
  NaN: a ``+inf`` candidate never wins, so a ``+inf`` cell still blocks
  its slot.

Preconditions (guaranteed by the in-pipeline callers, asserted nowhere
for speed): ``clamp_decisions`` requires finite rows already clipped to
``[0, capacity]``; ``battery_costs`` requires finite inputs; the DP
requires cost tables free of ``-inf`` and NaN.

Shapes use ``H`` for the horizon, ``S`` for the number of DP energy
states, ``L`` for the number of appliance power levels and a leading
batch axis of arbitrary size (CE population, population x games, or
games).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int_]
Int16Array = NDArray[np.int16]
BoolArray = NDArray[np.bool_]

_INF = np.inf


def _dp_backward(
    cost_tables: FloatArray,
    level_units: IntArray,
    n_states: int,
    mask: BoolArray,
) -> tuple[FloatArray, Int16Array]:
    """Backward value recursion over a leading game axis."""
    n_games, horizon, _ = cost_tables.shape
    states = np.arange(n_states)
    # source[j, r]: the state level j reaches r from, or the extra
    # always-infinite state ``n_states`` when r < units of level j.
    source = states[None, :] - np.asarray(level_units)[:, None]
    source[source < 0] = n_states
    value = np.full((n_games, n_states + 1), _INF)
    value[:, 0] = 0.0
    choices = np.zeros((n_games, horizon, n_states), dtype=np.int16)
    games = np.arange(n_games)[:, None]
    for h in range(horizon - 1, -1, -1):
        if not mask[h]:
            continue  # level 0, value unchanged
        candidate = value[:, source]
        candidate += cost_tables[:, h, :, None]
        choice = candidate.argmin(axis=1)
        choices[:, h, :] = choice
        value[:, :n_states] = candidate[games, choice, states]
    return value[:, :n_states], choices


@runtime_checkable
class KernelBackend(Protocol):
    """The kernel surface: the production object and the test oracle.

    ``tests/kernel_oracle.py`` implements the same four methods, so the
    equivalence tests can put the oracle's methods in place of the
    production ones and solve whole games through them.
    """

    def clamp_decisions(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        capacity: float,
        max_charge: float,
        max_discharge: float,
    ) -> FloatArray:
        """Project battery decision tails onto the reachable set.

        ``decisions`` has shape ``(..., H)``: trajectory tails
        ``(b^2, ..., b^{H+1})`` with the initial charge ``b^1`` pinned to
        ``initial``.  Returns the projected tails, same shape.
        """
        ...

    def battery_costs(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        load: FloatArray,
        pv: FloatArray,
        others: FloatArray,
        buy: FloatArray,
        sell: FloatArray,
        export_cap: float | None,
        paper_literal: bool,
        multiplicity: int,
    ) -> FloatArray:
        """Customer cost of each battery decision under Eqn. (2).

        ``decisions`` has shape ``(..., H)``; ``load``, ``pv``,
        ``others`` and the ``buy``/``sell`` rate rows must broadcast
        against it.  ``export_cap`` and ``paper_literal`` are the cost
        model's (see :func:`repro.netmetering.cost.customer_cost_terms`).
        Returns the per-row total cost with the last axis summed out.
        """
        ...

    def dp_backward(
        self,
        cost_table: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        """Backward value recursion of the appliance DP.

        ``cost_table`` has shape ``(H, L)``; returns ``(value, choice)``
        with ``value`` of shape ``(S,)`` (minimal cost to consume exactly
        ``r`` units from slot 0 on) and ``choice`` of shape ``(H, S)``
        (level index chosen at each slot/state).
        """
        ...

    def dp_backward_batch(
        self,
        cost_tables: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        """:meth:`dp_backward` over a leading game axis.

        ``cost_tables`` has shape ``(G, H, L)``; returns ``(values,
        choices)`` of shapes ``(G, S)`` and ``(G, H, S)``.
        """
        ...


class FusedKernels:
    """Buffer-reusing numpy kernels, bitwise-equal to the test oracle."""

    def clamp_decisions(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        capacity: float,
        max_charge: float,
        max_discharge: float,
    ) -> FloatArray:
        d = np.asarray(decisions, dtype=float)
        b = np.empty(d.shape[:-1] + (d.shape[-1] + 1,))
        b[..., 0] = initial
        b[..., 1:] = d
        bound = np.empty(b.shape[:-1])
        for h in range(1, b.shape[-1]):
            prev = b[..., h - 1]
            np.subtract(prev, max_discharge, out=bound)
            np.maximum(b[..., h], bound, out=b[..., h])
            np.add(prev, max_charge, out=bound)
            np.minimum(b[..., h], bound, out=b[..., h])
        return b[..., 1:]

    def battery_costs(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        load: FloatArray,
        pv: FloatArray,
        others: FloatArray,
        buy: FloatArray,
        sell: FloatArray,
        export_cap: float | None,
        paper_literal: bool,
        multiplicity: int,
    ) -> FloatArray:
        d = np.asarray(decisions, dtype=float)
        # y = (load + diff(full)) - pv, built in place.
        y = np.empty_like(d)
        np.subtract(d[..., 0], initial, out=y[..., 0])
        np.subtract(d[..., 1:], d[..., :-1], out=y[..., 1:])
        np.add(load, y, out=y)
        np.subtract(y, pv, out=y)
        # total = max(others + multiplicity * y, 0)
        total = np.multiply(y, multiplicity, out=np.empty_like(d))
        np.add(others, total, out=total)
        np.maximum(total, 0.0, out=total)
        # buying = (buy * total) * y
        buying = np.multiply(buy, total, out=np.empty_like(d))
        np.multiply(buying, y, out=buying)
        # selling = +-(sell * total) * max(y, -cap), in the total buffer
        np.multiply(sell, total, out=total)
        if export_cap is None:
            np.multiply(total, y, out=total)
        else:
            np.multiply(total, np.maximum(y, -float(export_cap)), out=total)
        if paper_literal:
            np.negative(total, out=total)
        cost = np.where(y >= 0, buying, total)
        return np.asarray(cost.sum(axis=-1), dtype=float)

    def dp_backward(
        self,
        cost_table: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        values, choices = _dp_backward(
            cost_table[None], level_units, n_states, mask
        )
        return values[0], choices[0]

    def dp_backward_batch(
        self,
        cost_tables: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        return _dp_backward(cost_tables, level_units, n_states, mask)


_KERNELS = FusedKernels()


def get_backend() -> KernelBackend:
    """The one kernel object every solver routes its hot loops through."""
    return _KERNELS
