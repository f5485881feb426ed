"""Extended billing tests: tariff identities and surge interactions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.billing.bills import BillBreakdown, customer_bill
from repro.billing.realtime import RealTimePriceModel
from repro.core.config import PricingConfig
from repro.netmetering.cost import NetMeteringCostModel

H = 6


class TestBillIdentity:
    @settings(max_examples=50, deadline=None)
    @given(
        trading=arrays(np.float64, H, elements=st.floats(-2.0, 4.0)),
        others=arrays(np.float64, H, elements=st.floats(0.0, 30.0)),
        w=st.floats(1.0, 4.0),
    )
    def test_charge_minus_credit_equals_cost(self, trading, others, w):
        """The bill decomposition always reconstructs the Eqn. (2) cost."""
        model = NetMeteringCostModel.flat((0.03,) * H, w)
        bill = customer_bill(trading, others, model)
        assert bill.total == pytest.approx(
            model.customer_cost(trading, others), abs=1e-9
        )

    @settings(max_examples=50, deadline=None)
    @given(
        trading=arrays(np.float64, H, elements=st.floats(-2.0, 4.0)),
        others=arrays(np.float64, H, elements=st.floats(0.0, 30.0)),
    )
    def test_quantities_partition_trading(self, trading, others):
        model = NetMeteringCostModel.flat((0.03,) * H)
        bill = customer_bill(trading, others, model)
        assert bill.purchases_kwh - bill.sales_kwh == pytest.approx(
            trading.sum(), abs=1e-9
        )

    def test_charge_and_credit_nonnegative_by_construction(self):
        model = NetMeteringCostModel.flat((0.03,) * H)
        trading = np.array([1.0, -1.0, 2.0, -0.5, 0.0, 0.5])
        others = np.full(H, 20.0)
        bill = customer_bill(trading, others, model)
        assert bill.energy_charge >= 0.0
        assert bill.sellback_credit >= 0.0


class TestHigherSellbackDivisorSmallerCredit:
    @settings(max_examples=30, deadline=None)
    @given(
        trading=arrays(np.float64, H, elements=st.floats(-2.0, 0.0)),
        others=arrays(np.float64, H, elements=st.floats(5.0, 30.0)),
    )
    def test_credit_decreases_in_w(self, trading, others):
        cheap = NetMeteringCostModel.flat((0.03,) * H, 1.0)
        stingy = NetMeteringCostModel.flat((0.03,) * H, 4.0)
        credit_cheap = customer_bill(trading, others, cheap).sellback_credit
        credit_stingy = customer_bill(trading, others, stingy).sellback_credit
        assert credit_cheap >= credit_stingy - 1e-12


class TestSurgePricing:
    @settings(max_examples=30, deadline=None)
    @given(demand=arrays(np.float64, H, elements=st.floats(0.0, 200.0)))
    def test_surge_never_below_linear_above_unit_demand(self, demand):
        linear = RealTimePriceModel(config=PricingConfig(), n_customers=10)
        surged = RealTimePriceModel(
            config=PricingConfig(), n_customers=10, surge_exponent=2.0
        )
        per_customer = demand / 10
        high = per_customer >= 1.0
        assert np.all(
            surged.price(demand)[high] >= linear.price(demand)[high] - 1e-12
        )

    def test_surge_below_linear_under_unit_demand(self):
        linear = RealTimePriceModel(config=PricingConfig(), n_customers=10)
        surged = RealTimePriceModel(
            config=PricingConfig(), n_customers=10, surge_exponent=2.0
        )
        demand = np.array([5.0])  # 0.5 kWh per customer
        assert surged.price(demand)[0] < linear.price(demand)[0]
