"""Bitwise equivalence suite for the kernel layer.

The production kernels in :mod:`repro.kernels` must reproduce the test
oracle (``tests/kernel_oracle.py``, the historical op sequences) bit for
bit on the inputs the pipeline produces — that is what keeps the
golden-master results fixed while the kernels get faster.  These tests
drive the kernels over CE-style battery populations and appliance DP
tables and assert exact equality, both against the oracle and against
the pre-kernel historical implementations (``clamp_trajectory_batch``,
``BatteryProblem.cost_batch``); the battery cost runs on the rate rows
of every named tariff, export cap and literal sign included.  Each test runs on both the production
kernels (``fused``) and the oracle (``reference``), so the oracle stays
checked against the historical implementations too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BatteryConfig
from repro.kernels import KernelBackend, get_backend
from repro.netmetering.battery import clamp_trajectory_batch
from repro.netmetering.cost import NetMeteringCostModel
from repro.optimization.battery import BatteryProblem
from repro.scheduling.dp import (
    _backtrack,
    _task_units,
    schedule_appliance_table,
    schedule_appliance_tables,
)
from repro.tariffs import named_tariff
from tests.conftest import HORIZON, make_customer
from tests.kernel_oracle import KERNEL_METHODS, ReferenceKernels

REFERENCE = ReferenceKernels()

SPECS = [
    BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    ),
    BatteryConfig(
        capacity_kwh=1.5, initial_kwh=0.2, max_charge_kw=0.4, max_discharge_kw=0.6
    ),
]


TARIFFS = ["flat", "nem3_spread", "spread_capped", "tou", "flat_paper_literal"]
BATTERY_COST_CASES = [
    # The flat cases keep the bare spec ids the suite has always used.
    pytest.param(spec, name, id=f"spec{i}" if name == "flat" else f"spec{i}-{name}")
    for name in TARIFFS
    for i, spec in enumerate(SPECS)
]


def _population(spec: BatteryConfig, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A CE-style population: finite and clipped to the battery box."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, spec.capacity_kwh + 1.0, size=shape + (HORIZON,))
    return np.clip(raw, 0.0, spec.capacity_kwh)


KERNEL_SETS = {"reference": REFERENCE, "fused": get_backend()}


@pytest.fixture(params=sorted(KERNEL_SETS, reverse=True))
def backend(request):
    return KERNEL_SETS[request.param]


@pytest.fixture
def oracle_kernels(monkeypatch):
    """Route every production kernel call through the oracle for one test."""
    kernels = get_backend()
    for name in KERNEL_METHODS:
        monkeypatch.setattr(kernels, name, getattr(REFERENCE, name))


class TestKernelSurface:
    def test_backends_satisfy_protocol(self, backend):
        """Oracle and production kernels expose the same four methods.

        The end-to-end checks below put the oracle's methods onto the
        production object by these names, and profilers wrap them there.
        """
        assert isinstance(backend, KernelBackend)
        for name in KERNEL_METHODS:
            assert callable(getattr(backend, name))

    def test_get_backend_returns_one_object(self):
        assert get_backend() is get_backend()


class TestClampDecisions:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("shape", [(48,), (5, 48), (3, 16)])
    def test_matches_reference_bitwise(self, backend, spec, shape):
        decisions = _population(spec, shape[:-1], seed=shape[-1])[
            ..., : HORIZON
        ]
        kwargs = dict(
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        ours = backend.clamp_decisions(decisions.copy(), **kwargs)
        ref = REFERENCE.clamp_decisions(decisions.copy(), **kwargs)
        np.testing.assert_array_equal(ours, ref)

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_historical_clamp(self, backend, spec):
        decisions = _population(spec, (32,), seed=7)
        ours = backend.clamp_decisions(
            decisions.copy(),
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        b0 = np.full((decisions.shape[0], 1), spec.initial_kwh)
        historical = clamp_trajectory_batch(
            np.hstack([b0, decisions]), spec, slot_hours=1.0
        )[:, 1:]
        np.testing.assert_array_equal(ours, historical)

    def test_projection_is_idempotent(self, backend):
        spec = SPECS[0]
        decisions = _population(spec, (16,), seed=3)
        kwargs = dict(
            initial=spec.initial_kwh,
            capacity=spec.capacity_kwh,
            max_charge=spec.max_charge_kw,
            max_discharge=spec.max_discharge_kw,
        )
        once = backend.clamp_decisions(decisions, **kwargs)
        twice = backend.clamp_decisions(once.copy(), **kwargs)
        np.testing.assert_array_equal(once, twice)


class TestBatteryCosts:
    """Kernel == oracle == ``BatteryProblem.cost_batch``, bitwise."""

    def _problem(
        self, spec: BatteryConfig, tariff_name: str, seed: int
    ) -> BatteryProblem:
        rng = np.random.default_rng(seed)
        prices = rng.uniform(0.01, 0.05, HORIZON)
        tariff = named_tariff(tariff_name)
        model = (
            NetMeteringCostModel.flat(prices, 2.0)
            if tariff is None
            else tariff.cost_model(prices, sellback_divisor=2.0)
        )
        # Deep exports into a net-buying community, so the selling
        # branch, its sign and the export cap all carry weight.
        return BatteryProblem(
            load=tuple(rng.uniform(0.2, 1.2, HORIZON)),
            pv=tuple(rng.uniform(0.0, 3.0, HORIZON)),
            others_trading=tuple(rng.uniform(-0.5, 14.0, HORIZON)),
            spec=spec,
            cost_model=model,
            multiplicity=3,
        )

    @staticmethod
    def _kwargs(problem: BatteryProblem) -> dict:
        model = problem.cost_model
        return dict(
            initial=problem.spec.initial_kwh,
            load=np.asarray(problem.load),
            pv=np.asarray(problem.pv),
            others=np.asarray(problem.others_trading),
            buy=model.buy_array,
            sell=model.sell_array,
            export_cap=model.export_cap_kwh,
            paper_literal=model.paper_literal,
            multiplicity=problem.multiplicity,
        )

    @pytest.mark.parametrize("spec, tariff_name", BATTERY_COST_CASES)
    def test_matches_reference_bitwise(self, backend, spec, tariff_name):
        problem = self._problem(spec, tariff_name, seed=11)
        decisions = problem.project_batch(_population(spec, (24,), seed=5))
        kwargs = self._kwargs(problem)
        np.testing.assert_array_equal(
            backend.battery_costs(decisions, **kwargs),
            REFERENCE.battery_costs(decisions, **kwargs),
        )

    @pytest.mark.parametrize("spec, tariff_name", BATTERY_COST_CASES)
    def test_matches_historical_cost_batch(self, backend, spec, tariff_name):
        problem = self._problem(spec, tariff_name, seed=13)
        decisions = problem.project_batch(_population(spec, (24,), seed=9))
        ours = backend.battery_costs(decisions, **self._kwargs(problem))
        np.testing.assert_array_equal(ours, problem.cost_batch(decisions))

    def test_cases_reach_the_cap_and_the_selling_branch(self):
        """The capped case exports past its cap while neighbours buy."""
        spec = SPECS[0]
        problem = self._problem(spec, "spread_capped", seed=13)
        decisions = problem.project_batch(_population(spec, (24,), seed=9))
        trading = np.array([problem.trading(row) for row in decisions])
        others = np.asarray(problem.others_trading)
        demand = others + problem.multiplicity * trading > 0
        cap = problem.cost_model.export_cap_kwh
        assert np.any((trading < -cap) & demand)
        assert np.any((trading < 0) & (trading >= -cap) & demand)


class TestApplianceDp:
    def _table(self, task, n_games: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(
            0.0, 1.0, size=(n_games, HORIZON, len(task.power_levels))
        )

    def test_dp_backward_matches_reference(self, backend, simple_task):
        table = self._table(simple_task, 1, seed=21)[0]
        level_units, required_units, mask = _task_units(
            simple_task, HORIZON, slot_hours=1.0
        )
        n_states = required_units + 1
        value, choice = backend.dp_backward(table, level_units, n_states, mask)
        ref_value, ref_choice = REFERENCE.dp_backward(
            table, level_units, n_states, mask
        )
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(choice, ref_choice)

    def test_dp_backward_ties_and_blocked_cells(self, backend):
        """Exact ties keep the first level and its sign of zero; +inf blocks."""
        rng = np.random.default_rng(25)
        mask = np.ones(HORIZON, dtype=bool)
        mask[:4] = False
        for level_units in ([0, 1], [0, 1, 2], [0, 2, 3, 5]):
            units = np.array(level_units)
            n_states = 9
            coarse = np.round(rng.uniform(0.0, 0.3, (3, HORIZON, units.size)), 1)
            tables = coarse * np.where(rng.random(coarse.shape) < 0.5, -1.0, 1.0)
            tables[rng.random(tables.shape) < 0.1] = np.inf
            values, choices = backend.dp_backward_batch(
                tables, units, n_states, mask
            )
            for g in range(tables.shape[0]):
                ref_value, ref_choice = REFERENCE.dp_backward(
                    tables[g], units, n_states, mask
                )
                assert values[g].tobytes() == ref_value.tobytes()
                np.testing.assert_array_equal(choices[g], ref_choice)

    def test_dp_backward_batch_rows_match_single(self, backend, simple_task):
        tables = self._table(simple_task, 4, seed=22)
        level_units, required_units, mask = _task_units(
            simple_task, HORIZON, slot_hours=1.0
        )
        n_states = required_units + 1
        values, choices = backend.dp_backward_batch(
            tables, level_units, n_states, mask
        )
        for g in range(tables.shape[0]):
            value, choice = backend.dp_backward(
                tables[g], level_units, n_states, mask
            )
            np.testing.assert_array_equal(values[g], value)
            np.testing.assert_array_equal(choices[g], choice)

    def test_schedule_identical_across_backends(
        self, backend, simple_task, request
    ):
        """The scheduler's answer is the oracle recursion's answer."""
        table = self._table(simple_task, 1, seed=23)[0]
        if backend is REFERENCE:
            request.getfixturevalue("oracle_kernels")
        ours, ours_diag = schedule_appliance_table(simple_task, table)
        level_units, required_units, mask = _task_units(
            simple_task, HORIZON, slot_hours=1.0
        )
        value, choice = REFERENCE.dp_backward(
            table, level_units, required_units + 1, mask
        )
        expected = _backtrack(simple_task, choice, level_units, required_units, mask)
        assert ours.power == tuple(expected)
        assert ours_diag.optimal_cost == float(value[required_units])

    def test_batched_schedules_match_loop(self, backend, simple_task, request):
        tables = self._table(simple_task, 3, seed=24)
        if backend is REFERENCE:
            request.getfixturevalue("oracle_kernels")
        schedules, costs = schedule_appliance_tables(simple_task, tables)
        for g, (schedule, cost) in enumerate(zip(schedules, costs)):
            single, diag = schedule_appliance_table(simple_task, tables[g])
            assert schedule.power == single.power
            assert cost == diag.optimal_cost


class TestEndToEndGameEquivalence:
    """A full game solve must not depend on which kernels run it."""

    def test_game_solve_backend_invariant(self, request):
        from repro.core.config import GameConfig
        from repro.scheduling.game import Community, SchedulingGame

        community = Community(
            customers=(
                make_customer(0),
                make_customer(1, battery=SPECS[0], pv_peak=0.8),
            ),
            counts=(2, 2),
        )
        prices = np.linspace(0.01, 0.05, HORIZON)
        config = GameConfig(
            max_rounds=3, inner_iterations=1, ce_samples=12, ce_elites=3,
            ce_iterations=3,
        )

        def solve():
            return SchedulingGame(
                community, prices, sellback_divisor=2.0, config=config,
            ).solve(rng=np.random.default_rng(0))

        first = solve()
        request.getfixturevalue("oracle_kernels")
        other = solve()
        assert other.rounds == first.rounds
        assert other.residuals == first.residuals
        for state_a, state_b in zip(first.states, other.states):
            assert state_a.battery_decision == state_b.battery_decision
            for sched_a, sched_b in zip(state_a.schedules, state_b.schedules):
                assert sched_a.power == sched_b.power
