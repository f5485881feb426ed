"""Tests for the battery problem and its cross-entropy optimizer."""

import numpy as np
import pytest

from repro.core.config import BatteryConfig
from repro.netmetering.battery import validate_trajectory
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.battery import BatteryOptimizer, BatteryProblem

H = 6
SPEC = BatteryConfig(
    capacity_kwh=2.0, initial_kwh=0.0, max_charge_kw=1.0, max_discharge_kw=1.0
)


def make_problem(
    prices=(0.01, 0.01, 0.05, 0.05, 0.01, 0.01),
    load=(1.0,) * H,
    pv=(0.0,) * H,
    others=(10.0,) * H,
    spec=SPEC,
    multiplicity=1,
) -> BatteryProblem:
    return BatteryProblem(
        load=load,
        pv=pv,
        others_trading=others,
        spec=spec,
        cost_model=NetMeteringCostModel.flat(prices, 2.0),
        multiplicity=multiplicity,
    )


class TestBatteryProblem:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            BatteryProblem(
                load=(1.0,) * H,
                pv=(0.0,) * (H - 1),
                others_trading=(1.0,) * H,
                spec=SPEC,
                cost_model=NetMeteringCostModel.flat((0.01,) * H),
            )

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError, match="horizon"):
            BatteryProblem(
                load=(1.0,) * H,
                pv=(0.0,) * H,
                others_trading=(1.0,) * H,
                spec=SPEC,
                cost_model=NetMeteringCostModel.flat((0.01,) * (H + 1)),
            )

    def test_trading_identity(self):
        problem = make_problem()
        decision = np.array([1.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        y = problem.trading(decision)
        # y = load + diff(b) - pv with b = [0, decision...]
        expected = np.array([2.0, 2.0, 0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(y, expected)

    def test_cost_matches_batch(self):
        problem = make_problem()
        decisions = np.array(
            [
                [1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.5, 1.0, 0.5, 0.5, 0.0, 0.5],
            ]
        )
        batch = problem.cost_batch(decisions)
        singles = np.array([problem.cost(d) for d in decisions])
        np.testing.assert_allclose(batch, singles)

    def test_cost_matches_batch_with_multiplicity(self):
        problem = make_problem(multiplicity=4)
        decisions = np.array([[0.5, 1.0, 0.5, 0.0, 0.5, 0.5]])
        np.testing.assert_allclose(
            problem.cost_batch(decisions), [problem.cost(decisions[0])]
        )

    def test_projection_feasible(self):
        problem = make_problem()
        raw = np.array([5.0, -1.0, 3.0, 0.0, 9.0, -2.0])
        projected = problem.project(raw)
        validate_trajectory(problem.full_trajectory(projected), SPEC)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicity"):
            make_problem(multiplicity=0)


class TestBatteryOptimizer:
    def test_arbitrage_improves_on_idle(self, rng):
        """Cheap-then-expensive prices: charging early must beat idling."""
        problem = make_problem()
        optimizer = BatteryOptimizer(n_samples=48, n_elites=8, n_iterations=20)
        result = optimizer.optimize(problem, rng=rng)
        idle_cost = problem.cost(np.zeros(H))
        assert result.fun < idle_cost
        # stored energy before the expensive block
        trajectory = problem.full_trajectory(result.x)
        assert trajectory[2] > 0.3

    def test_zero_capacity_short_circuit(self, rng):
        spec = BatteryConfig(capacity_kwh=0.0, initial_kwh=0.0)
        problem = make_problem(spec=spec)
        result = BatteryOptimizer().optimize(problem, rng=rng)
        np.testing.assert_allclose(result.x, 0.0)
        assert result.converged

    def test_result_is_feasible(self, rng):
        problem = make_problem()
        result = BatteryOptimizer(n_samples=24, n_iterations=8).optimize(
            problem, rng=rng
        )
        validate_trajectory(problem.full_trajectory(result.x), SPEC)

    def test_pv_storage_for_evening(self, rng):
        """Midday PV with an evening-expensive tariff: store then discharge."""
        prices = (0.01, 0.01, 0.01, 0.06, 0.06, 0.06)
        pv = (0.0, 1.5, 1.5, 0.0, 0.0, 0.0)
        problem = make_problem(prices=prices, pv=pv, load=(0.5,) * H)
        result = BatteryOptimizer(n_samples=64, n_elites=8, n_iterations=25).optimize(
            problem, rng=rng
        )
        trajectory = problem.full_trajectory(result.x)
        assert trajectory[3] > 0.5  # charged from PV
        assert trajectory[-1] < trajectory[3]  # discharged later

    def test_warm_start_used(self, rng):
        problem = make_problem()
        good = np.array([1.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        result = BatteryOptimizer(n_samples=16, n_iterations=3).optimize(
            problem, x0=good, rng=rng
        )
        assert result.fun <= problem.cost(good) + 1e-9
