"""Tests for the community scheduling game."""

import numpy as np
import pytest

from repro.core.config import GameConfig
from repro.scheduling.game import Community, SchedulingGame
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=4,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
    convergence_tol=0.05,
)


def flat_prices(value: float = 0.03) -> np.ndarray:
    return np.full(HORIZON, value)


class TestCommunity:
    def test_counts_validation(self, small_customer):
        with pytest.raises(ValueError, match="counts"):
            Community(customers=(small_customer,), counts=(1, 2))

    def test_positive_counts(self, small_customer):
        with pytest.raises(ValueError, match="counts"):
            Community(customers=(small_customer,), counts=(0,))

    def test_horizon_agreement(self, small_customer):
        short = make_customer(5)
        short = type(short)(
            customer_id=5,
            tasks=(
                type(short.tasks[0])(
                    name="t", power_levels=(0.0, 1.0), energy_kwh=1.0,
                    earliest_start=0, deadline=5,
                ),
            ),
            battery=short.battery,
            pv=(0.0,) * 12,
        )
        with pytest.raises(ValueError, match="horizon"):
            Community(customers=(small_customer, short), counts=(1, 1))

    def test_total_pv_weighted(self, small_community):
        total = small_community.total_pv
        expected = (
            3 * small_community.customers[0].pv_array
            + 2 * small_community.customers[1].pv_array
        )
        np.testing.assert_allclose(total, expected)

    def test_without_net_metering(self, small_community):
        stripped = small_community.without_net_metering()
        np.testing.assert_array_equal(stripped.total_pv, 0.0)
        assert stripped.n_customers == small_community.n_customers


class TestSchedulingGame:
    def test_price_shape_validation(self, small_community):
        with pytest.raises(ValueError, match="prices"):
            SchedulingGame(small_community, np.ones(5), config=FAST)

    def test_initial_state_feasible(self, small_community):
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        for customer in small_community.customers:
            state = game.initial_state(customer)
            for schedule in state.schedules:
                schedule.validate()

    def test_solve_returns_converged_result(self, small_community, rng):
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        result = game.solve(rng=rng)
        assert result.rounds >= 1
        assert len(result.states) == len(small_community.customers)

    def test_energy_conservation(self, small_community, rng):
        """Community load integrates base load plus every task's energy."""
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        result = game.solve(rng=rng)
        expected = 0.0
        for customer, count in zip(small_community.customers, small_community.counts):
            expected += count * (
                customer.base_load_array.sum() + customer.total_task_energy
            )
        assert result.community_load.sum() == pytest.approx(expected)

    def test_all_schedules_valid_after_solve(self, small_community, rng):
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        result = game.solve(rng=rng)
        for state in result.states:
            for schedule in state.schedules:
                schedule.validate()

    def test_battery_trajectories_feasible(self, small_community, rng):
        from repro.netmetering.battery import validate_trajectory

        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        result = game.solve(rng=rng)
        for state in result.states:
            validate_trajectory(state.battery_trajectory, state.customer.battery)

    def test_flattening_effect(self, rng):
        """The quadratic game moves deferrable load off the expensive peak."""
        customer = make_customer()
        community = Community(customers=(customer,), counts=(20,))
        peaky = flat_prices()
        peaky[18:22] = 0.12  # expensive evening
        game = SchedulingGame(community, peaky, config=FAST)
        result = game.solve(rng=rng)
        # the EV task (window 18-23) must concentrate in the cheap tail
        ev_load = result.states[0].schedules[1].load
        assert ev_load[22] + ev_load[23] >= 2.0

    def test_cheap_window_attracts_load(self, small_community, rng):
        prices = flat_prices()
        prices[10:12] = 0.001
        game = SchedulingGame(small_community, prices, config=FAST)
        result = game.solve(rng=rng)
        flat_result = SchedulingGame(
            small_community, flat_prices(), config=FAST
        ).solve(rng=np.random.default_rng(0))
        window_load = result.community_load[10:12].sum()
        flat_window_load = flat_result.community_load[10:12].sum()
        assert window_load >= flat_window_load

    def test_grid_demand_nonnegative(self, small_community, rng):
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        result = game.solve(rng=rng)
        assert np.all(result.grid_demand >= 0.0)

    def test_trading_identity(self, small_community, rng):
        """Community trading equals load plus battery delta minus PV."""
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        result = game.solve(rng=rng)
        battery_delta = np.zeros(HORIZON)
        for state, count in zip(result.states, result.counts):
            battery_delta += count * np.diff(state.battery_trajectory)
        expected = result.community_load + battery_delta - (
            3 * small_community.customers[0].pv_array
            + 2 * small_community.customers[1].pv_array
        )
        np.testing.assert_allclose(result.community_trading, expected, atol=1e-9)

    def test_deterministic_given_seed(self, small_community):
        def solve(seed):
            return SchedulingGame(
                small_community, flat_prices(), config=FAST
            ).solve(rng=np.random.default_rng(seed))

        a, b = solve(4), solve(4)
        np.testing.assert_array_equal(a.community_load, b.community_load)

    def test_best_response_does_not_increase_cost(self, small_community):
        """A best-response pass never worsens the customer's own cost."""
        game = SchedulingGame(small_community, flat_prices(), config=FAST)
        state = game.initial_state(small_community.customers[0])
        others = np.full(HORIZON, 5.0)
        before = game.cost_model.customer_cost_per_slot(
            state.trading, others, multiplicity=3
        ).sum()
        new_state = game.best_response(state, others, multiplicity=3)
        after = game.cost_model.customer_cost_per_slot(
            new_state.trading, others, multiplicity=3
        ).sum()
        assert after <= before + 1e-9
