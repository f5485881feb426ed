"""Cross-module property-based tests on core invariants.

These complement the per-module suites with hypothesis-driven checks of
the identities that hold the reproduction together: energy conservation
through the game, Eqn. (1)/(2) consistency, DP optimality under
transformations, and detector monotonicity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import BatteryConfig
from repro.netmetering.battery import clamp_trajectory
from repro.netmetering.cost import NetMeteringCostModel
from repro.netmetering.trading import trading_amounts
from repro.scheduling.appliance import ApplianceTask
from repro.scheduling.dp import schedule_appliance_table
from tests.conftest import marginal_table

H = 8


@st.composite
def cost_models(draw):
    prices = draw(
        arrays(np.float64, H, elements=st.floats(0.001, 0.2))
    )
    w = draw(st.floats(1.0, 5.0))
    return NetMeteringCostModel.flat(prices, w)


class TestCostIdentities:
    @settings(max_examples=60, deadline=None)
    @given(
        model=cost_models(),
        trading=arrays(np.float64, H, elements=st.floats(-3.0, 5.0)),
        others=arrays(np.float64, H, elements=st.floats(0.0, 50.0)),
    )
    def test_buying_costs_money_selling_earns(self, model, trading, others):
        """With positive community demand, buying slots cost >= 0 and
        selling slots cost <= 0."""
        per_slot = model.customer_cost_per_slot(trading, others)
        total = others + trading
        buying = (trading >= 0) & (total > 0)
        selling = (trading < 0) & (total > 0)
        assert np.all(per_slot[buying] >= -1e-12)
        assert np.all(per_slot[selling] <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        model=cost_models(),
        trading=arrays(np.float64, H, elements=st.floats(-2.0, 4.0)),
        others=arrays(np.float64, H, elements=st.floats(0.0, 30.0)),
        multiplicity=st.integers(1, 8),
    )
    def test_sell_reward_bounded_by_purchase_price(
        self, model, trading, others, multiplicity
    ):
        """W >= 1 means the per-unit sell-back reward never exceeds what a
        buyer would pay at the same community total."""
        per_slot = model.customer_cost_per_slot(
            trading, others, multiplicity=multiplicity
        )
        prices = model.buy_array
        total = np.maximum(others + multiplicity * trading, 0.0)
        bound = prices * total * np.abs(trading)
        assert np.all(np.abs(per_slot) <= bound + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        model=cost_models(),
        base=arrays(np.float64, H, elements=st.floats(-1.0, 3.0)),
        others=arrays(np.float64, H, elements=st.floats(0.0, 30.0)),
    )
    def test_marginal_table_telescopes(self, model, base, others):
        """Adding level a then reading the marginal of level b from the new
        base equals the direct marginal of (a+b) from the original base."""
        levels = np.array([0.0, 0.5, 1.0])
        direct = marginal_table(model, base, others, np.array([0.0, 1.0]))
        step1 = marginal_table(model, base, others, np.array([0.0, 0.5]))
        base2 = base + 0.5
        step2 = marginal_table(model, base2, others, np.array([0.0, 0.5]))
        np.testing.assert_allclose(
            direct[:, 1], step1[:, 1] + step2[:, 1], atol=1e-9
        )


class TestBatteryTradingIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        load=arrays(np.float64, H, elements=st.floats(0.0, 3.0)),
        pv=arrays(np.float64, H, elements=st.floats(0.0, 2.0)),
        raw=arrays(np.float64, H + 1, elements=st.floats(-3.0, 6.0)),
    )
    def test_projected_trajectory_conserves_energy(self, load, pv, raw):
        spec = BatteryConfig(
            capacity_kwh=3.0, initial_kwh=1.0, max_charge_kw=1.0, max_discharge_kw=1.0
        )
        trajectory = clamp_trajectory(raw, spec)
        y = trading_amounts(load, pv, trajectory)
        # Eqn (1) summed over the horizon:
        assert y.sum() == pytest.approx(
            load.sum() + (trajectory[-1] - trajectory[0]) - pv.sum(), abs=1e-9
        )


class TestDpInvariances:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        shift=st.floats(-2.0, 2.0),
    )
    def test_column_shift_invariance(self, seed, shift):
        """Adding a constant to one slot's whole column shifts every
        feasible plan equally only if the level-0 column shifts too; with
        level costs scaled by power, the argmin is scale-invariant."""
        rng = np.random.default_rng(seed)
        task = ApplianceTask("t", (0.0, 1.0), 2.0, 1, 4)
        table = rng.uniform(0.0, 1.0, size=(6, 2))
        table[:, 0] = 0.0
        schedule_a, diag_a = schedule_appliance_table(task, table)
        scaled = table * 3.0
        schedule_b, diag_b = schedule_appliance_table(task, scaled)
        assert schedule_a.power == schedule_b.power
        assert diag_b.optimal_cost == pytest.approx(3.0 * diag_a.optimal_cost)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_schedule_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(3, 7))
        start = int(rng.integers(0, 3))
        energy = float(rng.integers(1, width))
        task = ApplianceTask("t", (0.0, 0.5, 1.0), energy, start, start + width)
        table = rng.normal(0.0, 1.0, size=(start + width + 2, 3))
        table[:, 0] = 0.0
        schedule, _ = schedule_appliance_table(task, table)
        schedule.validate()


class TestDetectionMonotonicity:
    def test_stronger_attack_larger_margin(self):
        """On the same window, a stronger price cut never reduces the
        margin (the community can only chase a cheaper window harder)."""
        from repro.attacks.pricing import PeakIncreaseAttack
        from repro.core.config import GameConfig
        from repro.detection.single_event import (
            CommunityResponseSimulator,
            SingleEventDetector,
        )
        from repro.scheduling.game import Community
        from tests.conftest import make_customer

        fast = GameConfig(
            max_rounds=2, inner_iterations=1, ce_samples=8,
            ce_elites=2, ce_iterations=2,
        )
        community = Community(
            customers=(make_customer(0), make_customer(1)), counts=(6, 6)
        )
        simulator = CommunityResponseSimulator(community, config=fast, seed=1)
        prices = np.full(24, 0.03)
        detector = SingleEventDetector(
            simulator, prices, threshold=0.1, margin_noise_std=0.0
        )
        margins = [
            detector.check(
                PeakIncreaseAttack(18, 19, strength=s).apply(prices)
            ).margin
            for s in (0.0, 0.5, 1.0)
        ]
        assert margins[0] <= margins[1] + 0.05
        assert margins[1] <= margins[2] + 0.05
