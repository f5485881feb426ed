"""Cross-optimizer consistency tests on shared battery instances."""

import numpy as np
import pytest

from repro.core.config import BatteryConfig
from repro.netmetering.battery import validate_trajectory
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.annealing import simulated_annealing
from repro.optimization.baselines import coordinate_descent, random_search
from repro.optimization.battery import BatteryOptimizer, BatteryProblem

H = 12
SPEC = BatteryConfig(
    capacity_kwh=2.0, initial_kwh=0.0, max_charge_kw=1.0, max_discharge_kw=1.0
)


@pytest.fixture(scope="module")
def problem() -> BatteryProblem:
    prices = np.array([0.01] * 4 + [0.06] * 4 + [0.02] * 4)
    return BatteryProblem(
        load=(0.8,) * H,
        pv=(0.0, 0.0, 0.5, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        others_trading=(15.0,) * H,
        spec=SPEC,
        cost_model=NetMeteringCostModel.flat(prices, 2.0),
    )


@pytest.fixture(scope="module")
def reference_cost(problem) -> float:
    """A well-budgeted CE run as the reference optimum."""
    result = BatteryOptimizer(n_samples=96, n_elites=12, n_iterations=40).optimize(
        problem, rng=np.random.default_rng(0)
    )
    return result.fun


class TestOptimizerConsistency:
    def test_all_optimizers_feasible(self, problem):
        bounds = (np.zeros(H), np.full(H, SPEC.capacity_kwh))
        candidates = [
            BatteryOptimizer(n_samples=32, n_iterations=10)
            .optimize(problem, rng=np.random.default_rng(1))
            .x,
            random_search(
                problem.cost, *bounds, n_samples=200,
                rng=np.random.default_rng(1), projection=problem.project,
            ).x,
            coordinate_descent(
                problem.cost, *bounds, n_grid=5, n_sweeps=3,
                projection=problem.project,
            ).x,
            simulated_annealing(
                problem.cost, *bounds, n_iterations=300,
                rng=np.random.default_rng(1), projection=problem.project,
            ).x,
        ]
        for decision in candidates:
            validate_trajectory(problem.full_trajectory(decision), SPEC)

    def test_all_beat_idle(self, problem):
        """Every optimizer finds the cheap->expensive arbitrage."""
        idle = problem.cost(np.zeros(H))
        bounds = (np.zeros(H), np.full(H, SPEC.capacity_kwh))
        results = {
            "ce": BatteryOptimizer(n_samples=48, n_iterations=15).optimize(
                problem, rng=np.random.default_rng(2)
            ),
            "sa": simulated_annealing(
                problem.cost, *bounds, n_iterations=800,
                rng=np.random.default_rng(2), projection=problem.project,
            ),
            "cd": coordinate_descent(
                problem.cost, *bounds, n_grid=7, n_sweeps=4,
                projection=problem.project,
            ),
        }
        for name, result in results.items():
            assert result.fun < idle, f"{name} failed to beat idle"

    def test_ce_near_reference(self, problem, reference_cost):
        result = BatteryOptimizer(n_samples=64, n_iterations=25).optimize(
            problem, rng=np.random.default_rng(3)
        )
        assert result.fun <= reference_cost * 1.05 + 0.05

    def test_optimizers_agree_on_direction(self, problem, reference_cost):
        """The reference solution stores energy before the expensive block
        — the physically meaningful optimum every method approximates."""
        result = BatteryOptimizer(n_samples=96, n_elites=12, n_iterations=40).optimize(
            problem, rng=np.random.default_rng(0)
        )
        trajectory = problem.full_trajectory(result.x)
        assert trajectory[4] > 0.5  # charged before the price jump at slot 4
