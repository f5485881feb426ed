"""Single-household response simulation (externality-free view).

A lightweight counterpart to the community game: one household schedules
its appliances against posted prices with the DP scheduler and, when it
owns net-metering hardware, shifts storage with the cross-entropy
optimizer.  Useful for per-home what-if studies and the examples; the
detection layer uses the community-scale simulator instead
(:class:`repro.detection.single_event.CommunityResponseSimulator`), whose
quadratic externality smooths responses.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.config import GameConfig
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.battery import BatteryOptimizer, BatteryProblem
from repro.scheduling.customer import Customer
from repro.scheduling.dp import schedule_appliance_table


class HouseholdResponseSimulator:
    """Deterministic household responses to a posted price vector.

    The household faces the posted prices directly (no community
    externality): appliance slot costs are ``price * power`` and battery
    arbitrage trades against the posted prices.  Responses are memoized
    by the price vector's bytes.
    """

    def __init__(
        self,
        customer: Customer,
        *,
        sellback_divisor: float = 2.0,
        ce_seed: int = 0,
        game_config: GameConfig | None = None,
    ) -> None:
        self.customer = customer
        self.sellback_divisor = sellback_divisor
        self._config = game_config if game_config is not None else GameConfig()
        self._ce_seed = ce_seed
        self._cache: dict[bytes, NDArray[np.float64]] = {}

    def load_response(self, prices: ArrayLike) -> NDArray[np.float64]:
        """Household consumption per slot under the posted prices (kWh)."""
        p = np.asarray(prices, dtype=float)
        if p.shape != (self.customer.horizon,):
            raise ValueError(
                f"prices must have shape ({self.customer.horizon},), got {p.shape}"
            )
        key = np.round(p, 9).tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            return cached.copy()
        load = self.customer.base_load_array.copy()
        for task in self.customer.tasks:
            levels = np.asarray(task.power_levels)
            table = p[:, None] * levels[None, :]
            schedule, _ = schedule_appliance_table(task, table)
            load += schedule.load
        self._cache[key] = load
        return load.copy()

    def net_response(self, prices: ArrayLike) -> NDArray[np.float64]:
        """Net grid position per slot: load minus PV, with battery shifts."""
        p = np.asarray(prices, dtype=float)
        load = self.load_response(p)
        if not self.customer.has_net_metering:
            return load
        key = b"net:" + np.round(p, 9).tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            return cached.copy()
        cost_model = NetMeteringCostModel.flat(
            np.maximum(p, 0.0), self.sellback_divisor
        )
        problem = BatteryProblem(
            load=tuple(load),
            pv=self.customer.pv,
            others_trading=tuple(np.zeros(self.customer.horizon)),
            spec=self.customer.battery,
            cost_model=cost_model,
        )
        optimizer = BatteryOptimizer(
            n_samples=self._config.ce_samples,
            n_elites=self._config.ce_elites,
            n_iterations=self._config.ce_iterations,
            smoothing=self._config.ce_smoothing,
        )
        result = optimizer.optimize(problem, rng=np.random.default_rng(self._ce_seed))
        net = problem.trading(result.x)
        self._cache[key] = net
        return net.copy()
