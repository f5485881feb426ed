"""Quadratic net-metering cost model (Eqns. 2-3 of the paper).

The community is billed quadratically: the total monetary cost of the
community in slot ``h`` is ``p_h * (sum_n y_n^h)^2``.  Customer ``n``'s
share in slot ``h`` is

    C_n^h = b_h * (Y_h) * y_n^h        if y_n^h >= 0  (buying)
    C_n^h = s_h * (Y_h) * y_n^h        if y_n^h <  0  (selling)

where ``Y_h = sum_i y_i^h`` is the community trading total, ``b_h`` the
buy (import) rate and ``s_h`` the sell (export) rate.  The paper's flat
tariff is the instance ``b_h = p_h`` and ``s_h = p_h / W`` with the
sell-back divisor ``W >= 1``: the utility pays only ``p_h / W`` per unit
for energy sold back, keeping the difference as the cost of supporting
net metering (:meth:`NetMeteringCostModel.flat`).  Decoupled buy and
sell rates are the general form of Alahmed & Tong (arXiv:2212.03311);
every tariff of :mod:`repro.tariffs` is one instance of this model.

The selling branch is *rewarding* (negative cost) whenever the community
is a net buyer (``Y_h > 0``): the customer is paid the partial rate
times the demand-scaled price.  Note the paper's Eqn. (2) carries a
leading minus on the selling branch which, read literally, *charges*
customers for selling whenever ``Y_h > 0`` — contradicting its own text
("the utility pays the customer with the rate p_h/W").  We implement the
sign the text describes by default; the explicit ``paper_literal=True``
toggle keeps Eqn. (2)'s literal minus for anyone who wants the other
reading (both are pinned in ``tests/test_tariff_properties.py``, and the
tariff layer exposes the toggle as
``FlatNetMetering(paper_literal=True)``).

An optional NEM-3-style export cap limits compensation: exports deeper
than ``export_cap_kwh`` are accepted by the grid but not compensated, so
the compensated quantity per slot is ``max(y, -cap)``.

One guard is added on top: the community total entering the price is
floored at zero.  When the community as a whole exports (``Y_h < 0``)
there is no neighbor demand to serve, so neither billing nor sell-back
money flows ("the energy sold by a customer could be consumed by some
neighbors in the same community", Section 2.2).  The floor also removes
the runaway where deeper joint export would otherwise grow the per-unit
sell-back payment without bound.

:func:`customer_cost_terms` is the one per-slot formula and
:func:`marginal_tables` the one appliance marginal-cost table; the
model, the scheduling game and the plain-numpy battery reference all
evaluate through them, and the fused battery kernel of
:mod:`repro.kernels` follows the same op order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

FloatArray = NDArray[np.float64]


def customer_cost_terms(
    trading: FloatArray,
    others_trading: FloatArray,
    *,
    buy_rates: FloatArray,
    sell_rates: FloatArray,
    export_cap_kwh: float | None,
    paper_literal: bool,
    multiplicity: int = 1,
) -> FloatArray:
    """Per-slot customer cost ``C_n^h`` (Eqn. 2) for broadcastable shapes.

    With ``multiplicity > 1``, the customer is one of that many identical
    archetype instances moving in lockstep: ``others_trading`` must then
    exclude *all* instances, and the community total becomes
    ``others + multiplicity * y`` while the customer is still billed for
    its own quantity ``y``.

    Every evaluation path calls this with differently shaped views (one
    customer, CE populations, lockstep game rows), which is what keeps
    batched and sequential solves bitwise-identical: same operations,
    same order, only the leading (broadcast) axes differ.
    """
    total = np.maximum(others_trading + multiplicity * trading, 0.0)
    capped = (
        trading
        if export_cap_kwh is None
        else np.maximum(trading, -float(export_cap_kwh))
    )
    sell_term = sell_rates * total * capped
    if paper_literal:
        sell_term = -sell_term
    return np.asarray(
        np.where(trading >= 0.0, buy_rates * total * trading, sell_term)
    )


def marginal_tables(
    base_trading: FloatArray,
    others_trading: FloatArray,
    levels: ArrayLike,
    *,
    buy_rates: FloatArray,
    sell_rates: FloatArray,
    export_cap_kwh: float | None,
    paper_literal: bool,
    multiplicity: int = 1,
    slot_hours: float = 1.0,
) -> FloatArray:
    """Incremental cost of adding appliance load on top of base positions.

    For the DP scheduler: ``base_trading``, ``others_trading`` and the
    rate rows have shape ``(..., H)``; entry ``[..., h, j]`` of the
    result is the cost increase of the customer running an appliance at
    ``levels[j]`` kW in slot ``h``, given that its other trading is
    ``base_trading[..., h]`` and the rest of the community trades
    ``others_trading[..., h]``.

    With ``multiplicity > 1`` (archetype communities), all identical
    instances move together: ``others_trading`` must exclude all of
    them, and the community total seen by the price is
    ``others + multiplicity * y`` while the instance pays for its own
    quantity only.  Pricing the herd move is what keeps the
    best-response dynamics stable.

    Returns
    -------
    Array of shape ``(..., H, n_levels)``.
    """
    lv = np.asarray(levels, dtype=float) * slot_hours
    if lv.ndim != 1:
        raise ValueError(f"levels must be 1-D, got shape {lv.shape}")
    base_cost = customer_cost_terms(
        base_trading,
        others_trading,
        buy_rates=buy_rates,
        sell_rates=sell_rates,
        export_cap_kwh=export_cap_kwh,
        paper_literal=paper_literal,
        multiplicity=multiplicity,
    )
    cost_new = customer_cost_terms(
        base_trading[..., None] + lv,
        others_trading[..., None],
        buy_rates=buy_rates[..., None],
        sell_rates=sell_rates[..., None],
        export_cap_kwh=export_cap_kwh,
        paper_literal=paper_literal,
        multiplicity=multiplicity,
    )
    return np.asarray(cost_new - base_cost[..., None])


@dataclass(frozen=True)
class NetMeteringCostModel:
    """Vectorized cost evaluation for one customer's buy and sell rates.

    Parameters
    ----------
    buy_rates:
        Import rate per slot, shape ``(H,)``; must be finite and >= 0.
    sell_rates:
        Export compensation rate per slot, shape ``(H,)``; must be
        finite and >= 0.
    export_cap_kwh:
        Maximum compensated export per slot (kWh); ``None`` = uncapped.
    paper_literal:
        ``True`` applies Eqn. (2)'s literal leading minus to the selling
        branch (selling is *charged*); ``False`` (default) keeps the
        rewarding sign the paper's text describes.
    """

    buy_rates: tuple[float, ...]
    sell_rates: tuple[float, ...]
    export_cap_kwh: float | None = None
    paper_literal: bool = False

    def __post_init__(self) -> None:
        buy = tuple(float(v) for v in self.buy_rates)
        sell = tuple(float(v) for v in self.sell_rates)
        object.__setattr__(self, "buy_rates", buy)
        object.__setattr__(self, "sell_rates", sell)
        if len(buy) == 0:
            raise ValueError("buy_rates must be non-empty")
        if len(sell) != len(buy):
            raise ValueError(
                f"sell_rates length {len(sell)} != buy_rates length {len(buy)}"
            )
        if any(not np.isfinite(v) or v < 0 for v in buy):
            raise ValueError("buy_rates must be finite and >= 0")
        if any(not np.isfinite(v) or v < 0 for v in sell):
            raise ValueError("sell_rates must be finite and >= 0")
        if self.export_cap_kwh is not None:
            cap = float(self.export_cap_kwh)
            object.__setattr__(self, "export_cap_kwh", cap)
            if not np.isfinite(cap) or cap <= 0:
                raise ValueError(
                    f"export_cap_kwh must be finite and > 0, got {cap}"
                )

    @classmethod
    def flat(
        cls,
        prices: ArrayLike,
        sellback_divisor: float = 2.0,
        *,
        paper_literal: bool = False,
    ) -> NetMeteringCostModel:
        """The paper's flat tariff: buy at ``p_h``, sell at ``p_h / W``."""
        if sellback_divisor < 1:
            raise ValueError(
                f"sellback_divisor must be >= 1, got {sellback_divisor}"
            )
        p = np.asarray(prices, dtype=float)
        return cls(
            buy_rates=tuple(p),
            sell_rates=tuple(p / float(sellback_divisor)),
            paper_literal=paper_literal,
        )

    @property
    def horizon(self) -> int:
        return len(self.buy_rates)

    @property
    def buy_array(self) -> FloatArray:
        """Import-side rates — what a price-only greedy scheduler sees."""
        return np.asarray(self.buy_rates, dtype=float)

    @property
    def sell_array(self) -> FloatArray:
        return np.asarray(self.sell_rates, dtype=float)

    def community_cost(self, total_trading: ArrayLike) -> float:
        """Total community billing ``sum_h b_h * max(Y_h, 0)^2``.

        When ``Y_h <= 0`` the community as a whole exports; no billing
        money flows (see the module docstring's floor rationale).
        """
        y = self._validated(total_trading)
        cost = self.buy_array * np.maximum(y, 0.0) ** 2
        return float(cost.sum())

    def customer_cost(
        self,
        trading: ArrayLike,
        others_trading: ArrayLike,
    ) -> float:
        """Customer's total cost given everyone else's trading (Eqn. 2)."""
        return float(self.customer_cost_per_slot(trading, others_trading).sum())

    def customer_cost_per_slot(
        self,
        trading: ArrayLike,
        others_trading: ArrayLike,
        *,
        multiplicity: int = 1,
    ) -> FloatArray:
        """Per-slot customer cost ``C_n^h``; see :func:`customer_cost_terms`."""
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        return customer_cost_terms(
            self._validated(trading),
            self._validated(others_trading),
            buy_rates=self.buy_array,
            sell_rates=self.sell_array,
            export_cap_kwh=self.export_cap_kwh,
            paper_literal=self.paper_literal,
            multiplicity=multiplicity,
        )

    def _validated(self, values: ArrayLike) -> FloatArray:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.horizon,):
            raise ValueError(
                f"expected shape ({self.horizon},), got {arr.shape}"
            )
        if np.any(~np.isfinite(arr)):
            raise ValueError("values contain NaN or infinite entries")
        return arr
