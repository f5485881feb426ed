"""Tests for real-time pricing and bill accounting."""

import numpy as np
import pytest

from repro.billing.bills import (
    BillBreakdown,
    attack_bill_impact,
    community_bills,
    customer_bill,
)
from repro.billing.realtime import RealTimePriceModel
from repro.core.config import GameConfig, PricingConfig
from repro.netmetering.cost import NetMeteringCostModel
from repro.scheduling.game import Community, SchedulingGame
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=2, inner_iterations=1, ce_samples=8, ce_elites=2, ce_iterations=2
)


class TestRealTimePriceModel:
    def test_price_tracks_demand(self):
        model = RealTimePriceModel(config=PricingConfig(), n_customers=10)
        low = model.price(np.full(4, 5.0))
        high = model.price(np.full(4, 20.0))
        assert np.all(high > low)

    def test_surge_exponent_convexity(self):
        linear = RealTimePriceModel(config=PricingConfig(), n_customers=10)
        surged = RealTimePriceModel(
            config=PricingConfig(), n_customers=10, surge_exponent=2.0
        )
        demand = np.array([30.0])
        # per-customer demand 3 > 1, so the surge raises the price
        assert surged.price(demand)[0] > linear.price(demand)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RealTimePriceModel(config=PricingConfig(), n_customers=0)
        with pytest.raises(ValueError):
            RealTimePriceModel(
                config=PricingConfig(), n_customers=5, surge_exponent=0.5
            )
        model = RealTimePriceModel(config=PricingConfig(), n_customers=5)
        with pytest.raises(ValueError):
            model.price(np.array([-1.0]))


class TestBillBreakdown:
    def test_total(self):
        bill = BillBreakdown(
            purchases_kwh=10.0, sales_kwh=2.0, energy_charge=5.0, sellback_credit=1.0
        )
        assert bill.total == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BillBreakdown(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BillBreakdown(1.0, 0.0, -1.0, 0.0)


class TestCustomerBill:
    def test_buyer_only(self):
        model = NetMeteringCostModel.flat((0.02,) * 4, 2.0)
        trading = np.array([1.0, 2.0, 0.0, 1.0])
        others = np.full(4, 10.0)
        bill = customer_bill(trading, others, model)
        assert bill.purchases_kwh == pytest.approx(4.0)
        assert bill.sales_kwh == pytest.approx(0.0)
        assert bill.sellback_credit == pytest.approx(0.0)
        assert bill.total == pytest.approx(model.customer_cost(trading, others))

    def test_seller_gets_credit(self):
        model = NetMeteringCostModel.flat((0.02,) * 4, 2.0)
        trading = np.array([-1.0, 0.5, 0.0, 0.0])
        others = np.full(4, 10.0)
        bill = customer_bill(trading, others, model)
        assert bill.sales_kwh == pytest.approx(1.0)
        assert bill.sellback_credit > 0.0
        assert bill.total == pytest.approx(model.customer_cost(trading, others))


class TestCommunityBills:
    @pytest.fixture
    def game_result(self, rng):
        community = Community(
            customers=(make_customer(0), make_customer(1)), counts=(3, 3)
        )
        game = SchedulingGame(community, np.full(HORIZON, 0.03), config=FAST)
        return game.solve(rng=rng), game.cost_model

    def test_one_bill_per_archetype(self, game_result):
        result, cost_model = game_result
        bills = community_bills(result, cost_model)
        assert len(bills) == len(result.states)
        for bill in bills:
            assert bill.purchases_kwh >= 0.0

    def test_plain_customers_only_buy(self, game_result):
        result, cost_model = game_result
        for bill in community_bills(result, cost_model):
            assert bill.sales_kwh == pytest.approx(0.0)


class TestAttackBillImpact:
    def test_attack_increases_bill(self, rng):
        """Piling load into a fake-cheap window raises the real-time bill
        (the quadratic real-time price punishes the spike)."""
        from repro.attacks.pricing import ZeroPriceAttack

        community = Community(
            customers=(make_customer(0), make_customer(1)), counts=(6, 6)
        )
        prices = np.full(HORIZON, 0.03)
        benign = SchedulingGame(community, prices, config=FAST).solve(rng=rng)
        attacked_prices = ZeroPriceAttack(18, 19).apply(prices)
        attacked = SchedulingGame(community, attacked_prices, config=FAST).solve(
            rng=np.random.default_rng(0)
        )
        model = RealTimePriceModel(
            config=PricingConfig(), n_customers=12, surge_exponent=1.0
        )
        impact = attack_bill_impact(benign, attacked, model)
        assert impact > 0.0

    def test_identical_outcomes_zero_impact(self, rng):
        community = Community(customers=(make_customer(0),), counts=(4,))
        result = SchedulingGame(
            community, np.full(HORIZON, 0.03), config=FAST
        ).solve(rng=rng)
        model = RealTimePriceModel(config=PricingConfig(), n_customers=4)
        assert attack_bill_impact(result, result, model) == pytest.approx(0.0)
