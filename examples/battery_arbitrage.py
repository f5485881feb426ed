"""Household battery arbitrage with cross-entropy optimization.

A single net-metered household faces a day-ahead guideline price with a
cheap solar midday and an expensive evening.  The cross-entropy
optimizer (Section 3.2 of the paper) finds the battery trajectory that
buys/stores cheap energy and discharges into the expensive hours, and is
compared against the ablation baselines.

Run:  python examples/battery_arbitrage.py
"""

import numpy as np

from repro.core.config import BatteryConfig, SolarConfig, TimeGrid
from repro.data.solar import generate_pv
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.baselines import (
    coordinate_descent,
    projected_gradient,
    random_search,
)
from repro.optimization.battery import BatteryOptimizer, BatteryProblem


def main() -> None:
    rng = np.random.default_rng(7)
    grid = TimeGrid(slots_per_day=24, n_days=1)
    hours = np.arange(24) + 0.5

    # Duck-curve guideline price: cheap solar midday, expensive evening.
    prices = 0.03 + 0.02 * np.exp(-0.5 * ((hours - 19) / 2.0) ** 2)
    prices -= 0.015 * np.exp(-0.5 * ((hours - 13) / 2.5) ** 2)

    pv = generate_pv(rng, grid, SolarConfig(peak_kw=1.5))
    load = np.full(24, 0.8)
    spec = BatteryConfig(
        capacity_kwh=4.0, initial_kwh=0.5, max_charge_kw=1.5, max_discharge_kw=1.5
    )
    problem = BatteryProblem(
        load=tuple(load),
        pv=tuple(pv),
        others_trading=tuple(np.full(24, 40.0)),
        spec=spec,
        cost_model=NetMeteringCostModel.flat(prices, 2.0),
    )

    idle_cost = problem.cost(np.full(24, spec.initial_kwh))
    print(f"idle battery cost        : {idle_cost:8.4f}")

    ce = BatteryOptimizer(n_samples=64, n_elites=10, n_iterations=25).optimize(
        problem, rng=np.random.default_rng(0)
    )
    print(
        f"cross-entropy            : {ce.fun:8.4f}  "
        f"({ce.n_evaluations} evaluations, saved {idle_cost - ce.fun:.4f})"
    )

    bounds = (np.zeros(24), np.full(24, spec.capacity_kwh))
    rs = random_search(
        problem.cost, *bounds, n_samples=ce.n_evaluations,
        rng=np.random.default_rng(0), projection=problem.project,
    )
    cd = coordinate_descent(
        problem.cost, *bounds, n_grid=5, n_sweeps=4, projection=problem.project
    )
    pg = projected_gradient(
        problem.cost, *bounds, step=0.2, n_iterations=30, projection=problem.project
    )
    print(f"random search (matched)  : {rs.fun:8.4f}")
    print(f"coordinate descent       : {cd.fun:8.4f}")
    print(f"projected gradient       : {pg.fun:8.4f}")

    trajectory = problem.full_trajectory(ce.x)
    trading = problem.trading(ce.x)
    print("\nhour  price   pv    b(start)  trade")
    for h in range(24):
        print(
            f"{h:4d} {prices[h]:6.4f} {pv[h]:5.2f} {trajectory[h]:8.2f} "
            f"{trading[h]:+6.2f}"
        )


if __name__ == "__main__":
    main()
