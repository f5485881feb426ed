"""Batch invariance of the lockstep game solver.

``solve_games`` advances many independent games (same community and
seed, different price vectors) in lockstep so the CE population, DP
tables and cost kernels run once per batch instead of once per game.
The contract is bitwise: entry ``g`` must equal the result of solving
game ``g`` alone through :class:`SchedulingGame`, which is the same
solver at one game.  These tests pin that contract for cold starts,
warm starts, mixed batches, generalized tariffs, the paper-literal sign
convention, and for the production kernels against the test oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GameConfig
from repro.kernels import get_backend
from repro.scheduling.game import (
    Community,
    GameResult,
    SchedulingGame,
    solve_games,
)
from repro.tariffs import named_tariff
from tests.conftest import HORIZON, make_customer
from tests.kernel_oracle import KERNEL_METHODS, ReferenceKernels

FAST = GameConfig(
    max_rounds=3,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
)


@pytest.fixture(scope="module")
def community() -> Community:
    from repro.core.config import BatteryConfig

    spec = BatteryConfig(
        capacity_kwh=2.0, initial_kwh=0.5, max_charge_kw=1.0, max_discharge_kw=1.0
    )
    return Community(
        customers=(
            make_customer(0),
            make_customer(1, battery=spec, pv_peak=0.8),
        ),
        counts=(3, 2),
    )


def _prices(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(42)
    return [rng.uniform(0.01, 0.06, HORIZON) for _ in range(n)]


def _sequential(
    community: Community,
    price_vectors,
    *,
    seed: int = 0,
    warm_starts=None,
    ce_std_scale: float = 1.0,
    config: GameConfig = FAST,
    tariff=None,
) -> list[GameResult]:
    results = []
    for g, prices in enumerate(price_vectors):
        warm = warm_starts[g] if warm_starts is not None else None
        results.append(
            SchedulingGame(
                community, prices, sellback_divisor=2.0, config=config,
                tariff=tariff,
            ).solve(
                rng=np.random.default_rng(seed),  # repro: noqa[SEED003] batch-invariance oracle: same stream per game on purpose
                warm_start=warm,
                ce_std_scale=ce_std_scale,
            )
        )
    return results


def assert_results_equal(batched: GameResult, single: GameResult) -> None:
    assert batched.rounds == single.rounds
    assert batched.converged == single.converged
    assert batched.counts == single.counts
    assert batched.residuals == single.residuals
    for state_b, state_s in zip(batched.states, single.states):
        assert state_b.battery_decision == state_s.battery_decision
        for sched_b, sched_s in zip(state_b.schedules, state_s.schedules):
            assert sched_b.power == sched_s.power
    np.testing.assert_array_equal(
        batched.community_trading, single.community_trading
    )


@pytest.fixture
def oracle_kernels(monkeypatch):
    """Route every kernel call through the test oracle for one test."""
    kernels = get_backend()
    oracle = ReferenceKernels()
    for name in KERNEL_METHODS:
        monkeypatch.setattr(kernels, name, getattr(oracle, name))


class TestColdBatch:
    def test_batch_matches_sequential_loop(self, community):
        prices = _prices(4)
        batched = solve_games(community, prices, config=FAST, seed=0)
        for b, s in zip(batched, _sequential(community, prices)):
            assert_results_equal(b, s)

    def test_single_game_batch_matches_direct_solve(self, community):
        prices = _prices(1)
        [batched] = solve_games(community, prices, config=FAST, seed=5)
        [single] = _sequential(community, prices, seed=5)
        assert_results_equal(batched, single)

    def test_backend_invariant(self, community, request):
        """The production kernels and the oracle solve identical games."""
        prices = _prices(3)
        production = solve_games(community, prices, config=FAST)
        request.getfixturevalue("oracle_kernels")
        oracle = solve_games(community, prices, config=FAST)
        for a, b in zip(production, oracle):
            assert_results_equal(a, b)

    def test_games_stopping_at_different_rounds(self, community):
        """Games that converge early drop out; the rest keep their streams."""
        config = GameConfig(
            max_rounds=8,
            inner_iterations=1,
            ce_samples=12,
            ce_elites=3,
            ce_iterations=3,
        )
        prices = [np.full(HORIZON, 0.03)] + _prices(3)
        batched = solve_games(community, prices, config=config)
        assert len({r.rounds for r in batched}) > 1
        for b, s in zip(batched, _sequential(community, prices, config=config)):
            assert_results_equal(b, s)

    def test_empty_batch_rejected(self, community):
        with pytest.raises(ValueError, match="at least one price vector"):
            solve_games(community, [], config=FAST)

    def test_wrong_horizon_rejected(self, community):
        with pytest.raises(ValueError):
            solve_games(
                community, [np.full(HORIZON + 1, 0.03)], config=FAST
            )


class TestWarmBatch:
    def test_warm_batch_matches_sequential(self, community):
        base = _prices(1)[0]
        [warm_source] = solve_games(community, [base], config=FAST)
        prices = [base * 1.02, base * 0.97, base + 0.001]
        warm_starts = [warm_source] * len(prices)
        batched = solve_games(
            community, prices, config=FAST, warm_starts=warm_starts,
            ce_std_scale=0.25,
        )
        sequential = _sequential(
            community, prices, warm_starts=warm_starts, ce_std_scale=0.25
        )
        for b, s in zip(batched, sequential):
            assert_results_equal(b, s)

    def test_mixed_warm_and_cold_batch(self, community):
        base = _prices(1)[0]
        [warm_source] = solve_games(community, [base], config=FAST)
        prices = [base * 1.01, base * 0.5, base * 0.99]
        warm_starts = [warm_source, None, warm_source]
        batched = solve_games(
            community, prices, config=FAST, warm_starts=warm_starts,
            ce_std_scale=0.25,
        )
        sequential = _sequential(
            community, prices, warm_starts=warm_starts, ce_std_scale=0.25
        )
        for b, s in zip(batched, sequential):
            assert_results_equal(b, s)

    def test_warm_start_is_deterministic(self, community):
        base = _prices(1)[0]
        [warm_source] = solve_games(community, [base], config=FAST)
        runs = [
            solve_games(
                community, [base * 1.03], config=FAST,
                warm_starts=[warm_source], ce_std_scale=0.25,
            )[0]
            for _ in range(2)
        ]
        assert_results_equal(runs[0], runs[1])


class TestTariffBatch:
    """Every named tariff, export cap and literal sign included, prices
    through the one cost model and battery kernel the flat games use."""

    @pytest.mark.parametrize(
        "name", ["nem3_spread", "spread_capped", "tou", "flat_paper_literal"]
    )
    def test_tariff_batch_matches_sequential(self, community, name):
        tariff = named_tariff(name)
        prices = _prices(3)
        batched = solve_games(community, prices, config=FAST, tariff=tariff)
        sequential = _sequential(community, prices, tariff=tariff)
        for b, s in zip(batched, sequential):
            assert_results_equal(b, s)
