"""Generalized tariff cost model (buy/sell rate vectors, export caps).

:class:`TariffCostModel` is the duck-typed sibling of
:class:`~repro.netmetering.cost.NetMeteringCostModel`: it exposes the
same evaluation surface (``horizon`` / ``price_array`` /
``customer_cost_per_slot`` / ``marginal_cost_table`` /
``community_cost``) so the scheduling game, the battery optimizer and
the lockstep batch solver can price any tariff through one hook, but it
decouples the buy and sell sides into independent per-slot rate vectors
and adds two structural knobs the paper's flat model cannot express:

``export_cap_kwh``
    NEM-3-style compensation cap: exports deeper than the cap are
    accepted by the grid but not compensated — the compensated quantity
    per slot is ``max(y, -cap)``, so the credit binds *exactly* at the
    cap (pinned by property tests).

``paper_literal``
    Sign of the selling branch.  The default implements the paper
    text's *rewarding* reading (selling earns money while the community
    is a net buyer); ``paper_literal=True`` keeps Eqn. (2)'s literal
    leading minus, which *charges* for exports.  See the module
    docstring of :mod:`repro.netmetering.cost`.

The quadratic demand-scaled structure itself (cost terms proportional to
``max(Y_h, 0) * y``) is shared with the legacy model, so
:class:`~repro.tariffs.catalog.FlatNetMetering` degenerates to it
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import ArrayLike, NDArray

if TYPE_CHECKING:
    from repro.netmetering.cost import NetMeteringCostModel


def tariff_cost_terms(
    trading: NDArray[np.float64],
    others_trading: NDArray[np.float64],
    *,
    buy_rates: NDArray[np.float64],
    sell_rates: NDArray[np.float64],
    export_cap_kwh: float | None,
    paper_literal: bool,
    multiplicity: int = 1,
) -> NDArray[np.float64]:
    """Per-slot tariff cost for arbitrary broadcastable shapes.

    The one formula every tariff evaluation path shares — the sequential
    game, the batched CE populations and the lockstep solver all call
    this with differently shaped views, which is what keeps batched and
    sequential solves bitwise-identical: same operations, same order,
    only the leading (broadcast) axes differ.
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
    return np.where(trading >= 0.0, buy_rates * total * trading, sell_term)


@dataclass(frozen=True)
class TariffCostModel:
    """Vectorized cost evaluation for decoupled buy/sell rate vectors.

    Parameters
    ----------
    buy_rates:
        Retail (import) rate per slot, shape ``(H,)``; must be >= 0.
    sell_rates:
        Export compensation rate per slot, shape ``(H,)``; must be >= 0.
    export_cap_kwh:
        Maximum compensated export per slot (kWh); ``None`` = uncapped.
    paper_literal:
        ``True`` flips the selling branch to Eqn. (2)'s literal charging
        sign; ``False`` (default) implements the text's rewarding sign.
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
    def from_net_metering(cls, model: "NetMeteringCostModel") -> "TariffCostModel":
        """The legacy flat model re-expressed as decoupled rate vectors.

        ``sell_rates`` precomputes ``p_h / W`` per slot; because the
        legacy formula also evaluates ``(p / W)`` before scaling by
        ``total * y``, the conversion is bitwise-faithful.
        """
        prices = model.price_array
        return cls(
            buy_rates=tuple(float(v) for v in prices),
            sell_rates=tuple(
                float(v) for v in prices / float(model.sellback_divisor)
            ),
            export_cap_kwh=None,
            paper_literal=bool(getattr(model, "paper_literal", False)),
        )

    # -- NetMeteringCostModel-compatible surface -----------------------
    @property
    def horizon(self) -> int:
        return len(self.buy_rates)

    @property
    def price_array(self) -> NDArray[np.float64]:
        """Import-side rates — what a price-only greedy scheduler sees."""
        return np.asarray(self.buy_rates, dtype=float)

    @property
    def sell_array(self) -> NDArray[np.float64]:
        return np.asarray(self.sell_rates, dtype=float)

    def community_cost(self, total_trading: ArrayLike) -> float:
        """Total community billing at import rates, export slots floored."""
        y = self._validated(total_trading)
        cost = self.price_array * np.maximum(y, 0.0) ** 2
        return float(cost.sum())

    def customer_cost(
        self,
        trading: ArrayLike,
        others_trading: ArrayLike,
    ) -> float:
        return float(self.customer_cost_per_slot(trading, others_trading).sum())

    def customer_cost_per_slot(
        self,
        trading: ArrayLike,
        others_trading: ArrayLike,
        *,
        multiplicity: int = 1,
    ) -> NDArray[np.float64]:
        """Per-slot customer cost under the generalized tariff.

        Same demand-scaled quadratic structure and archetype
        ``multiplicity`` semantics as
        :meth:`~repro.netmetering.cost.NetMeteringCostModel.customer_cost_per_slot`.
        """
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        y = self._validated(trading)
        y_others = self._validated(others_trading)
        return tariff_cost_terms(
            y,
            y_others,
            buy_rates=self.price_array,
            sell_rates=self.sell_array,
            export_cap_kwh=self.export_cap_kwh,
            paper_literal=self.paper_literal,
            multiplicity=multiplicity,
        )

    def marginal_cost_table(
        self,
        base_trading: ArrayLike,
        others_trading: ArrayLike,
        levels: ArrayLike,
        *,
        multiplicity: int = 1,
        slot_hours: float = 1.0,
    ) -> NDArray[np.float64]:
        """Incremental cost of appliance levels on top of a base position.

        Shape ``(H, n_levels)``; the DP scheduler's table, mirroring the
        legacy model's method.
        """
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        y0 = self._validated(base_trading)
        y_others = self._validated(others_trading)
        lv = np.asarray(levels, dtype=float) * slot_hours
        if lv.ndim != 1:
            raise ValueError(f"levels must be 1-D, got shape {lv.shape}")
        base_cost = self.customer_cost_per_slot(
            y0, y_others, multiplicity=multiplicity
        )
        y_new = y0[:, None] + lv[None, :]
        cost_new = tariff_cost_terms(
            y_new,
            y_others[:, None],
            buy_rates=self.price_array[:, None],
            sell_rates=self.sell_array[:, None],
            export_cap_kwh=self.export_cap_kwh,
            paper_literal=self.paper_literal,
            multiplicity=multiplicity,
        )
        return cost_new - base_cost[:, None]

    def battery_costs(
        self,
        decisions: ArrayLike,
        *,
        initial_level: float,
        load: ArrayLike,
        pv: ArrayLike,
        others_trading: ArrayLike,
        multiplicity: int = 1,
    ) -> NDArray[np.float64]:
        """Batched battery-trajectory cost for CE populations.

        ``decisions`` has shape ``(..., H)`` (candidate end-of-slot
        battery levels); returns total cost per candidate with shape
        ``decisions.shape[:-1]``.  The pure-numpy analogue of the flat
        net-metering kernel ``battery_costs``.
        """
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        d = np.asarray(decisions, dtype=float)
        if d.shape[-1] != self.horizon:
            raise ValueError(
                f"decisions last axis {d.shape[-1]} != horizon {self.horizon}"
            )
        start = np.full(d.shape[:-1] + (1,), float(initial_level))
        trajectory = np.concatenate([start, d], axis=-1)
        trading = (
            np.asarray(load, dtype=float)
            + np.diff(trajectory, axis=-1)
            - np.asarray(pv, dtype=float)
        )
        cost = tariff_cost_terms(
            trading,
            np.asarray(others_trading, dtype=float),
            buy_rates=self.price_array,
            sell_rates=self.sell_array,
            export_cap_kwh=self.export_cap_kwh,
            paper_literal=self.paper_literal,
            multiplicity=multiplicity,
        )
        return np.asarray(cost.sum(axis=-1), dtype=float)

    def _validated(self, values: ArrayLike) -> NDArray[np.float64]:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.horizon,):
            raise ValueError(
                f"expected shape ({self.horizon},), got {arr.shape}"
            )
        if np.any(~np.isfinite(arr)):
            raise ValueError("values contain NaN or infinite entries")
        return arr
