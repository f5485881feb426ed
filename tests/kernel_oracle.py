"""Test oracle for :mod:`repro.kernels`: the historical op sequences, verbatim.

Every kernel here reproduces, operation for operation, the code paths
the golden-master digests were recorded against
(:func:`repro.netmetering.battery.clamp_trajectory_batch`,
:meth:`repro.optimization.battery.BatteryProblem.cost_batch` and the
historical backward loop of the appliance DP).  The battery cost is the
historical generalized-tariff population formula; on the paper's flat
rates (sell at ``p / W``, no cap, rewarding sign) it is the historical
flat formula bit for bit.  The production kernels
are checked bitwise against this class in ``tests/test_kernels.py``;
the end-to-end checks swap its methods onto the production kernel
object to solve whole games through the oracle.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int_]
Int16Array = NDArray[np.int16]
BoolArray = NDArray[np.bool_]

KERNEL_METHODS = ("clamp_decisions", "battery_costs", "dp_backward", "dp_backward_batch")
"""The kernel surface shared by the oracle and the production object."""


def prepend_initial(decisions: FloatArray, initial: float) -> FloatArray:
    """Full trajectories ``(b^1, ..., b^{H+1})`` from decision tails."""
    b0 = np.full(decisions.shape[:-1] + (1,), initial)
    return np.concatenate([b0, decisions], axis=-1)


_INF = np.inf


class ReferenceKernels:
    """Plain numpy kernels matching the seed implementation bit for bit."""

    def clamp_decisions(
        self,
        decisions: FloatArray,
        *,
        initial: float,
        capacity: float,
        max_charge: float,
        max_discharge: float,
    ) -> FloatArray:
        b = prepend_initial(np.asarray(decisions, dtype=float), initial)
        b = np.nan_to_num(b, nan=initial, posinf=capacity, neginf=0.0)
        b[..., 0] = initial
        for h in range(1, b.shape[-1]):
            prev = b[..., h - 1]
            lo = np.maximum(0.0, prev - max_discharge)
            hi = np.minimum(capacity, prev + max_charge)
            b[..., h] = np.minimum(np.maximum(b[..., h], lo), hi)
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
        full = prepend_initial(np.asarray(decisions, dtype=float), initial)
        y = load + np.diff(full, axis=-1) - pv
        total = np.maximum(others + multiplicity * y, 0.0)
        capped = y if export_cap is None else np.maximum(y, -float(export_cap))
        selling = sell * total * capped
        if paper_literal:
            selling = -selling
        cost = np.where(y >= 0, buy * total * y, selling)
        return np.asarray(cost.sum(axis=-1), dtype=float)

    def dp_backward(
        self,
        cost_table: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        horizon = cost_table.shape[0]
        value = np.full(n_states, _INF)
        value[0] = 0.0
        choice = np.zeros((horizon, n_states), dtype=np.int16)
        for h in range(horizon - 1, -1, -1):
            if not mask[h]:
                choice[h, :] = 0
                continue
            best = np.full(n_states, _INF)
            best_choice = np.zeros(n_states, dtype=np.int16)
            for j, du in enumerate(level_units):
                cost_j = cost_table[h, j]
                if not np.isfinite(cost_j):
                    continue
                if du == 0:
                    candidate = value + cost_j
                else:
                    candidate = np.full(n_states, _INF)
                    candidate[du:] = value[:-du] + cost_j if du < n_states else _INF
                improved = candidate < best
                best[improved] = candidate[improved]
                best_choice[improved] = j
            value = best
            choice[h, :] = best_choice
        return value, choice

    def dp_backward_batch(
        self,
        cost_tables: FloatArray,
        level_units: IntArray,
        n_states: int,
        mask: BoolArray,
    ) -> tuple[FloatArray, Int16Array]:
        n_games, horizon, _ = cost_tables.shape
        values = np.empty((n_games, n_states))
        choices = np.empty((n_games, horizon, n_states), dtype=np.int16)
        for g in range(n_games):
            values[g], choices[g] = self.dp_backward(
                cost_tables[g], level_units, n_states, mask
            )
        return values, choices
