"""Exact storage-arbitrage oracle vs the CE battery optimizer.

For a *single* customer (``others_trading = 0``, ``multiplicity = 1``)
with no appliances, the scheduling problem degenerates to storage
arbitrage under the quadratic net-metering tariff: choose a feasible
battery trajectory minimizing ``sum_h p_h * max(y_h, 0) * y_h`` with
``y = load + diff(b) - pv``.  That problem admits an exact
lattice-dynamic-program oracle (in the style of Hashmi et al.'s
storage-arbitrage DPs): discretize the state of charge, take the exact
stage cost on the grid, and backward-induct.  The oracle restricted to
the grid upper-bounds nothing and lower-bounds the continuous optimum
to within the grid resolution, so it brackets what the CE solver may
return.

These tests pin (1) the oracle itself against an analytically solvable
instance, (2) structural properties of the oracle, and (3) the property
that the production CE optimizer lands within tolerance of the oracle
on random storage-only instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import BatteryConfig
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.battery import BatteryOptimizer, BatteryProblem

H = 12

SPEC = BatteryConfig(
    capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
)


def storage_problem(
    load: np.ndarray,
    prices: np.ndarray,
    *,
    spec: BatteryConfig = SPEC,
    pv: np.ndarray | None = None,
) -> BatteryProblem:
    """A single-customer, storage-only instance (no siblings, no export gain)."""
    pv = pv if pv is not None else np.zeros(len(load))
    return BatteryProblem(
        load=tuple(load),
        pv=tuple(pv),
        others_trading=tuple(np.zeros(len(load))),
        spec=spec,
        cost_model=NetMeteringCostModel.flat(prices, 2.0),
    )


def lattice_oracle(problem: BatteryProblem, *, n_grid: int = 161) -> float:
    """Exact optimal cost over an ``n_grid``-point state-of-charge lattice.

    Backward induction over slots with the *exact* stage cost evaluated
    on every feasible grid transition.  The initial charge must lie on
    the grid so the returned value is the true optimum of the latticed
    problem (no interpolation error).
    """
    spec = problem.spec
    levels = np.linspace(0.0, spec.capacity_kwh, n_grid)
    load = np.asarray(problem.load)
    pv = np.asarray(problem.pv)
    buy = problem.cost_model.buy_array
    sell = problem.cost_model.sell_array
    others = np.asarray(problem.others_trading)
    mult = problem.multiplicity
    dt = problem.slot_hours

    value = np.zeros(n_grid)
    for h in reversed(range(problem.horizon)):
        delta = levels[None, :] - levels[:, None]
        feasible = (delta <= spec.max_charge_kw * dt + 1e-9) & (
            delta >= -spec.max_discharge_kw * dt - 1e-9
        )
        y = load[h] + delta - pv[h]
        total = np.maximum(others[h] + mult * y, 0.0)
        stage = np.where(
            y >= 0, buy[h] * total * y, sell[h] * total * y
        )
        value = np.where(feasible, stage + value[None, :], np.inf).min(axis=1)

    start = int(round(spec.initial_kwh / spec.capacity_kwh * (n_grid - 1)))
    assert abs(levels[start] - spec.initial_kwh) < 1e-12, (
        "initial charge must lie on the lattice"
    )
    return float(value[start])


def ce_cost(problem: BatteryProblem, *, seed: int = 0) -> float:
    result = BatteryOptimizer(
        n_samples=64, n_elites=10, n_iterations=40, smoothing=0.7
    ).optimize(problem, rng=np.random.default_rng(seed))
    return result.fun


class TestOracleExactness:
    def test_flat_instance_matches_closed_form(self):
        # Flat load, flat prices, empty battery: convexity makes the
        # do-nothing trajectory optimal, so cost = H * p * l^2 exactly.
        load, price = 0.8, 0.03
        spec = BatteryConfig(
            capacity_kwh=2.0, initial_kwh=0.0,
            max_charge_kw=1.0, max_discharge_kw=1.0,
        )
        problem = storage_problem(
            np.full(H, load), np.full(H, price), spec=spec
        )
        analytic = H * price * load**2
        assert lattice_oracle(problem) == pytest.approx(analytic, rel=1e-9)

    def test_oracle_never_exceeds_do_nothing(self):
        rng = np.random.default_rng(1)
        load = rng.uniform(0.1, 1.2, H)
        prices = rng.uniform(0.01, 0.08, H)
        problem = storage_problem(load, prices)
        do_nothing = problem.cost(np.full(H, SPEC.initial_kwh))
        assert lattice_oracle(problem) <= do_nothing + 1e-12

    def test_larger_battery_never_hurts(self):
        rng = np.random.default_rng(2)
        load = rng.uniform(0.1, 1.2, H)
        prices = rng.uniform(0.01, 0.08, H)
        small = storage_problem(load, prices)
        bigger_spec = BatteryConfig(
            capacity_kwh=4.0, initial_kwh=0.5,
            max_charge_kw=2.0, max_discharge_kw=2.0,
        )
        big = storage_problem(load, prices, spec=bigger_spec)
        assert lattice_oracle(big, n_grid=321) <= lattice_oracle(small) + 1e-9

    def test_finer_grid_only_improves(self):
        rng = np.random.default_rng(3)
        load = rng.uniform(0.1, 1.2, H)
        prices = rng.uniform(0.01, 0.08, H)
        problem = storage_problem(load, prices)
        coarse = lattice_oracle(problem, n_grid=41)
        fine = lattice_oracle(problem, n_grid=161)
        assert fine <= coarse + 1e-12


class TestCeWithinTolerance:
    # Empirically the production CE settings land 0-14% above the exact
    # optimum on random instances of this size; the bounds below leave
    # headroom while still catching a broken solver or cost kernel.
    UPPER_MARGIN = 1.5
    LOWER_SLACK = 0.02

    @pytest.mark.parametrize("seed", [0, 7, 25, 42, 47])
    def test_regression_instances(self, seed):
        rng = np.random.default_rng(seed)
        load = rng.uniform(0.1, 1.2, H)
        prices = rng.uniform(0.01, 0.08, H)
        problem = storage_problem(load, prices)
        oracle = lattice_oracle(problem)
        cost = ce_cost(problem, seed=seed)
        assert cost <= oracle * 1.2 + 1e-4
        assert cost >= oracle * (1 - self.LOWER_SLACK) - 1e-6

    @settings(max_examples=10, deadline=None)
    @given(
        load=arrays(
            np.float64, H, elements=st.floats(min_value=0.1, max_value=1.2)
        ),
        prices=arrays(
            np.float64, H, elements=st.floats(min_value=0.01, max_value=0.08)
        ),
    )
    def test_ce_brackets_oracle(self, load, prices):
        problem = storage_problem(load, prices)
        oracle = lattice_oracle(problem)
        cost = ce_cost(problem)
        # The oracle lower-bounds the continuous optimum up to grid
        # resolution; CE can only do worse than the true optimum.  The
        # absolute slack covers near-degenerate instances whose optimal
        # cost is tiny compared to the battery's energy scale, where
        # CE's absolute plateau dwarfs any relative margin.
        assert cost >= oracle * (1 - self.LOWER_SLACK) - 1e-6
        assert cost <= oracle * self.UPPER_MARGIN + 0.01

    def test_ce_exploits_cheap_pv_window(self):
        # A canonical arbitrage instance: free midday PV surplus and an
        # expensive evening peak.  Any sane storage policy beats
        # do-nothing, and CE must find such a policy.
        load = np.concatenate([np.full(H // 2, 0.2), np.full(H - H // 2, 1.0)])
        pv = np.concatenate([np.full(H // 2, 0.8), np.zeros(H - H // 2)])
        prices = np.concatenate(
            [np.full(H // 2, 0.01), np.full(H - H // 2, 0.08)]
        )
        problem = storage_problem(load, prices, pv=pv)
        do_nothing = problem.cost(np.full(H, SPEC.initial_kwh))
        oracle = lattice_oracle(problem)
        cost = ce_cost(problem)
        assert oracle < do_nothing * 0.9
        assert cost < do_nothing
        assert cost >= oracle * (1 - self.LOWER_SLACK) - 1e-6
