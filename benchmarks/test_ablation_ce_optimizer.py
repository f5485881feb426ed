"""Ablation A: cross-entropy vs baseline optimizers on the battery cost.

The paper chooses cross-entropy optimization because the battery cost is
non-convex (the selling branch is a concave quadratic).  This bench pits
CE against random search, coordinate descent and projected gradient on a
realistic battery arbitrage instance at matched evaluation budgets.
"""

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.core.config import BatteryConfig
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.annealing import simulated_annealing
from repro.optimization.baselines import (
    coordinate_descent,
    projected_gradient,
    random_search,
)
from repro.optimization.battery import BatteryOptimizer, BatteryProblem

H = 24


@pytest.fixture(scope="module")
def problem(environment) -> BatteryProblem:
    """A PV-plus-arbitrage battery instance from the bench environment."""
    config = environment.config
    customer = next(
        c for c in environment.community.customers if c.has_net_metering
    )
    prices = environment.clean_prices
    load = customer.base_load_array + 0.4
    return BatteryProblem(
        load=tuple(load),
        pv=customer.pv,
        others_trading=tuple(np.full(H, 60.0)),
        spec=config.battery,
        cost_model=NetMeteringCostModel.flat(
            prices, config.pricing.sellback_divisor
        ),
    )


@pytest.fixture(scope="module")
def ce_result(problem):
    optimizer = BatteryOptimizer(n_samples=96, n_elites=12, n_iterations=30)
    return optimizer.optimize(problem, rng=np.random.default_rng(0))


def test_ce_optimizer(problem, ce_result, benchmark):
    optimizer = BatteryOptimizer(n_samples=96, n_elites=12, n_iterations=30)
    result = benchmark.pedantic(
        lambda: optimizer.optimize(problem, rng=np.random.default_rng(0)),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["cost"] = result.fun
    benchmark.extra_info["evaluations"] = result.n_evaluations
    idle = problem.cost(np.zeros(H))
    report("Ablation A: CE cost improvement over idle", 0.0, idle - result.fun)
    assert result.fun < idle


def test_random_search_baseline(problem, ce_result, benchmark):
    result = benchmark.pedantic(
        lambda: random_search(
            problem.cost,
            np.zeros(H),
            np.full(H, problem.spec.capacity_kwh),
            n_samples=ce_result.n_evaluations,
            rng=np.random.default_rng(0),
            projection=problem.project,
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["cost"] = result.fun
    report("Ablation A: CE advantage over random search", 0.0, result.fun - ce_result.fun)
    # Matched budget: CE must not lose to uniform sampling.
    assert ce_result.fun <= result.fun + 1e-6


def test_coordinate_descent_baseline(problem, ce_result, benchmark):
    result = benchmark.pedantic(
        lambda: coordinate_descent(
            problem.cost,
            np.zeros(H),
            np.full(H, problem.spec.capacity_kwh),
            n_grid=5,
            n_sweeps=5,
            projection=problem.project,
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["cost"] = result.fun
    report(
        "Ablation A: CE vs coordinate descent (cost delta)",
        0.0,
        result.fun - ce_result.fun,
    )


def test_simulated_annealing_baseline(problem, ce_result, benchmark):
    result = benchmark.pedantic(
        lambda: simulated_annealing(
            problem.cost,
            np.zeros(H),
            np.full(H, problem.spec.capacity_kwh),
            n_iterations=ce_result.n_evaluations,
            rng=np.random.default_rng(0),
            projection=problem.project,
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["cost"] = result.fun
    report(
        "Ablation A: CE vs simulated annealing (cost delta)",
        0.0,
        result.fun - ce_result.fun,
    )


def test_projected_gradient_baseline(problem, ce_result, benchmark):
    result = benchmark.pedantic(
        lambda: projected_gradient(
            problem.cost,
            np.zeros(H),
            np.full(H, problem.spec.capacity_kwh),
            step=0.2,
            n_iterations=20,
            projection=problem.project,
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["cost"] = result.fun
    report(
        "Ablation A: CE vs projected gradient (cost delta)",
        0.0,
        result.fun - ce_result.fun,
    )
