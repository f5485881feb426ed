"""Equilibrium warm-starting: near-hit lookup and determinism contracts.

Warm-starting seeds a game solve from the nearest cached equilibrium
(Chebyshev distance over rounded price vectors).  The contracts under
test:

- ``register_prices`` / ``nearest`` behave as a deterministic index —
  insertion order scan, strict improvement, first-registered wins ties,
  evicted entries pruned;
- warm-started results are deterministic given the cache state;
- a warm-start simulator over an *empty* cache is bitwise-identical to
  a cold simulator (``nearest`` returns ``None``, so the solve runs the
  historical cold path);
- warm solutions live in their own cache namespace and never collide
  with the cold entries golden-master runs rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GameConfig, SolverConfig
from repro.detection.single_event import CommunityResponseSimulator
from repro.scheduling.game import solve_games
from repro.scheduling.game import Community
from repro.simulation.cache import (
    GameSolutionCache,
    NearHit,
    solution_key,
    solve_context_key,
    warm_context_key,
)
from tests.conftest import HORIZON, make_customer

FAST = GameConfig(
    max_rounds=3,
    inner_iterations=1,
    ce_samples=12,
    ce_elites=3,
    ce_iterations=3,
)

WARM_SOLVER = SolverConfig(
    warm_start=True, warm_start_max_distance=10.0, ce_warm_std_scale=0.25
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
        counts=(2, 2),
    )


@pytest.fixture(scope="module")
def solved(community) -> dict[str, object]:
    """One solved game reused as cache content across the unit tests."""
    prices = np.linspace(0.01, 0.05, HORIZON)
    [result] = solve_games(community, [prices], config=FAST)
    return {"prices": prices, "result": result}


def _simulator(community, *, solver=None, cache=None) -> CommunityResponseSimulator:
    return CommunityResponseSimulator(
        community,
        config=FAST,
        seed=3,
        cache=cache if cache is not None else GameSolutionCache(),
        solver=solver,
    )


def assert_results_equal(a, b) -> None:
    assert a.rounds == b.rounds
    assert a.residuals == b.residuals
    for state_a, state_b in zip(a.states, b.states):
        assert state_a.battery_decision == state_b.battery_decision
        for sched_a, sched_b in zip(state_a.schedules, state_b.schedules):
            assert sched_a.power == sched_b.power


class TestWarmContextKey:
    def test_differs_from_cold_context(self):
        cold = "a" * 64
        warm = warm_context_key(cold, ce_std_scale=0.25, max_distance=0.05)
        assert warm != cold

    def test_sensitive_to_both_knobs(self):
        cold = "a" * 64
        base = warm_context_key(cold, ce_std_scale=0.25, max_distance=0.05)
        assert base != warm_context_key(cold, ce_std_scale=0.5, max_distance=0.05)
        assert base != warm_context_key(cold, ce_std_scale=0.25, max_distance=0.1)

    def test_deterministic(self):
        cold = "b" * 64
        assert warm_context_key(
            cold, ce_std_scale=0.25, max_distance=0.05
        ) == warm_context_key(cold, ce_std_scale=0.25, max_distance=0.05)


class TestNearestLookup:
    def _put(self, cache, context, prices, result, tag):
        key = solution_key(context, prices) + tag
        cache.put(key, result)
        cache.register_prices(context, prices, key)
        return key

    def test_finds_closest_registered_vector(self, solved):
        cache = GameSolutionCache()
        context = "ctx"
        base = solved["prices"]
        far_key = self._put(cache, context, base + 0.02, solved["result"], "far")
        near_key = self._put(cache, context, base + 0.001, solved["result"], "near")
        hit = cache.nearest(context, base)
        assert isinstance(hit, NearHit)
        assert hit.key == near_key
        assert hit.key != far_key
        assert hit.distance == pytest.approx(0.001)

    def test_max_distance_excludes_far_entries(self, solved):
        cache = GameSolutionCache()
        base = solved["prices"]
        self._put(cache, "ctx", base + 0.02, solved["result"], "far")
        assert cache.nearest("ctx", base, max_distance=0.01) is None
        assert cache.nearest("ctx", base, max_distance=0.05) is not None

    def test_empty_context_returns_none(self, solved):
        cache = GameSolutionCache()
        assert cache.nearest("ctx", solved["prices"]) is None

    def test_first_registered_wins_ties(self, solved):
        cache = GameSolutionCache()
        base = solved["prices"]
        first = self._put(cache, "ctx", base + 0.01, solved["result"], "first")
        self._put(cache, "ctx", base - 0.01, solved["result"], "second")
        hit = cache.nearest("ctx", base)
        assert hit is not None and hit.key == first

    def test_evicted_entries_are_pruned(self, solved):
        cache = GameSolutionCache(max_entries=1)
        base = solved["prices"]
        self._put(cache, "ctx", base + 0.001, solved["result"], "old")
        kept = self._put(cache, "ctx", base + 0.02, solved["result"], "new")
        # The first entry was evicted by the LRU bound; nearest must skip
        # it (and drop it from the index) rather than return a dead key.
        hit = cache.nearest("ctx", base)
        assert hit is not None and hit.key == kept
        assert len(cache._price_index["ctx"]) == 1

    def test_contexts_are_isolated(self, solved):
        cache = GameSolutionCache()
        base = solved["prices"]
        self._put(cache, "ctx-a", base, solved["result"], "a")
        assert cache.nearest("ctx-b", base) is None

    def test_clear_drops_price_index(self, solved):
        cache = GameSolutionCache()
        base = solved["prices"]
        self._put(cache, "ctx", base, solved["result"], "a")
        cache.clear()
        assert cache.nearest("ctx", base) is None


class TestWarmStartSimulator:
    def test_empty_cache_warm_equals_cold(self, community):
        prices = np.linspace(0.012, 0.045, HORIZON)
        cold = _simulator(community).response(prices)
        warm = _simulator(community, solver=WARM_SOLVER).response(prices)
        assert_results_equal(cold, warm)

    def test_warm_runs_deterministic_given_cache_state(self, community):
        base = np.linspace(0.012, 0.045, HORIZON)
        vectors = [base, base * 1.05, base * 0.9, base + 0.003]
        runs = []
        for _ in range(2):
            simulator = _simulator(community, solver=WARM_SOLVER)
            runs.append([simulator.response(p) for p in vectors])
        for a, b in zip(*runs):
            assert_results_equal(a, b)

    def test_warm_and_cold_namespaces_disjoint(self, community):
        cache = GameSolutionCache()
        base = np.linspace(0.012, 0.045, HORIZON)
        cold_sim = _simulator(community, cache=cache)
        warm_sim = _simulator(community, solver=WARM_SOLVER, cache=cache)

        cold_before = cold_sim.response(base * 1.02)
        warm_sim.response(base)
        warm_sim.response(base * 1.02)
        cold_after = _simulator(community, cache=cache).response(base * 1.02)
        # The warm simulator populated the shared cache, but only under
        # its namespaced context key: the cold result is untouched.
        assert_results_equal(cold_before, cold_after)
        assert cold_sim._context_key != warm_sim._context_key

    def test_warm_context_key_matches_helper(self, community):
        cache = GameSolutionCache()
        cold_sim = _simulator(community, cache=cache)
        warm_sim = _simulator(community, solver=WARM_SOLVER, cache=cache)
        expected = warm_context_key(
            solve_context_key(
                community, FAST, sellback_divisor=2.0, seed=3
            ),
            ce_std_scale=WARM_SOLVER.ce_warm_std_scale,
            max_distance=WARM_SOLVER.warm_start_max_distance,
        )
        assert warm_sim._context_key == expected
        assert cold_sim._context_key != expected

    def test_cold_prefetch_then_response_matches_unprefetched(self, community):
        # For the (default) cold solver, prefetching is bitwise-neutral:
        # batched lockstep solving reproduces the sequential loop.
        base = np.linspace(0.012, 0.045, HORIZON)
        vectors = [base, base * 1.05, base * 0.9]
        prefetched = _simulator(community)
        prefetched.prefetch(vectors)
        direct = _simulator(community)
        for p in vectors:
            assert_results_equal(prefetched.response(p), direct.response(p))

    def test_warm_prefetch_is_deterministic(self, community):
        # Warm-started results depend on the cache state at solve time —
        # a prefetched batch sees an emptier cache than sequential
        # responses would — so the warm contract is determinism under the
        # same call pattern, not equality across call patterns.
        base = np.linspace(0.012, 0.045, HORIZON)
        vectors = [base, base * 1.05, base * 0.9]
        runs = []
        for _ in range(2):
            simulator = _simulator(community, solver=WARM_SOLVER)
            simulator.prefetch(vectors)
            runs.append([simulator.response(p) for p in vectors])
        for a, b in zip(*runs):
            assert_results_equal(a, b)
