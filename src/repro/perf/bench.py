"""Hot-path benchmark harness and ``BENCH_*.json`` perf-trajectory writer.

``python scripts/bench_hotpaths.py`` (or ``make bench`` / the
``repro-bench`` console script) times the pipeline's three hot layers —
the CE battery step, a full game solve, and the long-term scenario — and
appends one machine-readable entry to ``BENCH_hotpaths.json``.  Each
entry records the environment (CPU count, versions), wall-clock timings,
derived speedups, and the perf counters of the scenario run (including
the game-solution cache hit rate), so the repository accumulates a perf
trajectory PR over PR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.config import CommunityConfig, SolverConfig
from repro.core.presets import bench_preset, smoke_preset
from repro.obs.logs import configure_logging, get_logger
from repro.data.community import build_community
from repro.fileio import atomic_write
from repro.optimization.battery import BatteryOptimizer, BatteryProblem
from repro.optimization.cross_entropy import CrossEntropyOptimizer
from repro.perf.counters import PERF
from repro.perf.parallel import ParallelMap
from repro.scheduling.game import SchedulingGame
from repro.simulation.aggregate import run_aggregate_scenario
from repro.simulation.cache import GameSolutionCache, global_game_cache
from repro.simulation.scenario import run_long_term_scenario

PRESETS = {"smoke": smoke_preset, "bench": bench_preset}


def collect_environment() -> dict[str, object]:
    """Reproducibility metadata for one bench entry."""
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        ).stdout.strip()
    except OSError:
        git_rev = ""
    return {
        # Bench provenance stamp — records *when* the run happened, never
        # flows into a simulation path.
        "timestamp": datetime.now(timezone.utc).isoformat(),  # repro: noqa[DET002]
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def write_bench_json(path: str | Path, entry: dict[str, object]) -> None:
    """Append one entry to a ``BENCH_*.json`` perf-trajectory file.

    The file holds ``{"entries": [...]}``; corrupt or legacy files are
    replaced rather than crashing the bench run.
    """
    target = Path(path)
    payload: dict[str, list[dict[str, object]]] = {"entries": []}
    if target.exists():
        try:
            loaded = json.loads(target.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("entries"), list):
                payload = loaded
        except json.JSONDecodeError:
            pass
    payload["entries"].append(entry)
    atomic_write(target, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _time(fn: Callable[[], object], *, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for one callable."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_ce_step(config: CommunityConfig) -> dict[str, float]:
    """Batched-projection CE battery step vs the seed's per-sample loop."""
    rng = np.random.default_rng(config.seed)
    community = build_community(config, rng=rng)
    customer = next(
        c for c in community.customers if c.battery.capacity_kwh > 0
    )
    horizon = community.horizon
    prices = np.linspace(0.01, 0.05, horizon)
    game = SchedulingGame(
        community, prices, sellback_divisor=config.pricing.sellback_divisor,
        config=config.game,
    )
    state = game.initial_state(customer)
    problem = BatteryProblem(
        load=tuple(state.load),
        pv=customer.pv,
        others_trading=tuple(np.zeros(horizon)),
        spec=customer.battery,
        cost_model=game.cost_model,
        slot_hours=1.0,
        multiplicity=1,
    )
    gc = config.game

    def seed_style_step() -> None:
        # The pre-batching implementation: per-sample projection loop,
        # redundant warm-start projection, and a final re-projection +
        # cost re-evaluation of the winner.
        optimizer = CrossEntropyOptimizer(
            lower=np.zeros(horizon),
            upper=np.full(horizon, problem.spec.capacity_kwh),
            n_samples=gc.ce_samples,
            n_elites=gc.ce_elites,
            n_iterations=gc.ce_iterations,
            smoothing=gc.ce_smoothing,
            projection=problem.project,
        )
        start = problem.project(np.full(horizon, problem.spec.initial_kwh))
        result = optimizer.minimize(
            problem.cost_batch, x0=start,
            rng=np.random.default_rng(customer.customer_id + 7919), batch=True,
        )
        problem.cost(problem.project(result.x))

    def batched_step() -> None:
        BatteryOptimizer(
            n_samples=gc.ce_samples,
            n_elites=gc.ce_elites,
            n_iterations=gc.ce_iterations,
            smoothing=gc.ce_smoothing,
        ).optimize(
            problem, rng=np.random.default_rng(customer.customer_id + 7919)
        )

    # Raw projection of one CE population, batched vs per-sample.
    population = np.random.default_rng(0).uniform(
        -1.0, problem.spec.capacity_kwh + 1.0, size=(gc.ce_samples, horizon)
    )
    loop_projection_s = _time(
        lambda: np.stack([problem.project(s) for s in population]), repeats=5
    )
    batch_projection_s = _time(
        lambda: problem.project_batch(population), repeats=5
    )

    seed_s = _time(seed_style_step, repeats=3)
    batched_s = _time(batched_step, repeats=3)
    return {
        "projection_loop_s": loop_projection_s,
        "projection_batch_s": batch_projection_s,
        "projection_speedup": loop_projection_s / batch_projection_s,
        "ce_step_seed_s": seed_s,
        "ce_step_batched_s": batched_s,
        "ce_step_speedup": seed_s / batched_s,
    }


def _bench_game_solve(config: CommunityConfig) -> dict[str, float]:
    """One cold game solve at preset scale, with work counters."""
    rng = np.random.default_rng(config.seed)
    community = build_community(config, rng=rng)
    prices = np.linspace(0.01, 0.05, community.horizon)

    def solve() -> None:
        SchedulingGame(
            community, prices,
            sellback_divisor=config.pricing.sellback_divisor,
            config=config.game,
        ).solve(rng=np.random.default_rng(3))

    before = PERF.snapshot()
    seconds = _time(solve)
    after = PERF.snapshot()
    return {
        "solve_s": seconds,
        "rounds": after.get("game.rounds", 0) - before.get("game.rounds", 0),
        "ce_evaluations": after.get("ce.evaluations", 0)
        - before.get("ce.evaluations", 0),
        "dp_cells": after.get("dp.cells", 0) - before.get("dp.cells", 0),
    }


def _bench_scenario(config: CommunityConfig, *, n_slots: int, workers: int) -> dict[str, object]:
    """Table-1-style scenario runs: cold vs cached, serial vs process pool."""
    logger = get_logger("bench")
    cold_cache = GameSolutionCache()
    cold_s = _time(
        lambda: run_long_term_scenario(
            config, detector="aware", n_slots=n_slots,
            calibration_trials=10, cache=cold_cache,
        )
    )

    # Same scenario with equilibrium warm-starting enabled: solves are
    # seeded from the nearest already-cached equilibrium of the run.
    # Warm-started results live in their own cache namespace (they are
    # *not* bitwise-identical to cold solves), so this timing measures
    # the opt-in fast path rather than a cache replay.
    warmstart_solver = SolverConfig(
        warm_start=True,
        warm_start_max_distance=10.0,
        ce_warm_std_scale=0.25,
    )
    warmstart_config = config.with_updates(solver=warmstart_solver)
    warmstart_s = _time(
        lambda: run_long_term_scenario(
            warmstart_config, detector="aware", n_slots=n_slots,
            calibration_trials=10, cache=GameSolutionCache(),
        )
    )

    warm_cache = GameSolutionCache()
    run_long_term_scenario(
        config, detector="aware", n_slots=n_slots,
        calibration_trials=10, cache=warm_cache,
    )
    warm_s = _time(
        lambda: run_long_term_scenario(
            config, detector="aware", n_slots=n_slots,
            calibration_trials=10, cache=warm_cache,
        )
    )

    # Clear the process-global cache before each timing: forked workers
    # inherit the parent's cache, so without this the process run would
    # be measured warm against a cold serial run.
    seeds = (config.seed, config.seed + 1)
    global_game_cache().clear()
    serial_s = _time(
        lambda: run_aggregate_scenario(
            config, detector="aware", seeds=seeds, n_slots=n_slots,
            calibration_trials=10,
        )
    )
    pool = ParallelMap(backend="process", max_workers=workers)
    effective_workers = pool.effective_workers
    if effective_workers <= 1:
        # A one-worker process pool measures fork overhead, not
        # parallelism; a "speedup" derived from it is pure timing noise.
        logger.warning(
            "aggregate parallel bench skipped: only %d effective worker(s) "
            "available (requested %d, cpu_count=%s) — a single-worker "
            "speedup number would be noise",
            effective_workers, workers, os.cpu_count(),
        )
        parallel_s = None
        speedup = None
    else:
        global_game_cache().clear()
        parallel_s = _time(
            lambda: run_aggregate_scenario(
                config, detector="aware", seeds=seeds, n_slots=n_slots,
                calibration_trials=10, parallel=pool,
            )
        )
        speedup = serial_s / parallel_s
    return {
        "n_slots": n_slots,
        "scenario_cold_s": cold_s,
        "scenario_cold_warmstart_s": warmstart_s,
        "warmstart_speedup": cold_s / warmstart_s,
        "warmstart_max_distance": warmstart_solver.warm_start_max_distance,
        "warmstart_ce_std_scale": warmstart_solver.ce_warm_std_scale,
        "scenario_cached_s": warm_s,
        "cache_speedup": cold_s / warm_s,
        "cache_hit_rate": warm_cache.hit_rate,
        "cache_entries": warm_cache.size,
        "aggregate_serial_s": serial_s,
        "aggregate_process_s": parallel_s,
        "aggregate_speedup": speedup,
        "aggregate_workers_requested": workers,
        "aggregate_workers": effective_workers,
        "aggregate_seeds": len(seeds),
    }


def _numeric_leaves(
    section: object, prefix: str = ""
) -> dict[str, float]:
    """Flatten a bench entry section to dotted-path numeric leaves."""
    leaves: dict[str, float] = {}
    if isinstance(section, dict):
        for key, value in section.items():
            leaves.update(_numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(section, (int, float)) and not isinstance(section, bool):
        leaves[prefix[:-1]] = float(section)
    return leaves


def _entry_stamp(entry: dict[str, object]) -> str:
    """One-line provenance label for a bench entry."""
    env = entry.get("environment")
    env = env if isinstance(env, dict) else {}
    return (
        f"git={env.get('git_rev') or '?'} "
        f"preset={entry.get('preset', '?')} "
        f"at {env.get('timestamp', '?')}"
    )


def compare_latest_entries(path: str | Path) -> int:
    """Log the latest bench entry against the previous one.

    Compares every shared numeric leaf of the timing sections and
    renders the change as a speedup factor (previous / latest for
    ``*_s`` timings, so >1 means the latest run is faster).  Entries
    recorded when kernel backends existed (their ``backend`` field and
    ``+<backend>`` key suffix) compare like any other.

    A short history is not a failure: a missing file or fewer than two
    entries logs what is there and returns 0, so a fresh
    clone's first ``repro-bench --compare`` never breaks a script or a
    CI gate.  Only an unreadable/corrupt trajectory file returns 1.
    """
    logger = get_logger("bench")
    target = Path(path)
    if not target.exists():
        logger.info(
            "no bench file at %s yet; nothing to compare (run repro-bench "
            "to record a first entry)",
            target,
        )
        return 0
    try:
        entries = json.loads(target.read_text()).get("entries", [])
    except json.JSONDecodeError as exc:
        logger.error("%s is not valid JSON: %s", target, exc)
        return 1
    if len(entries) < 2:
        logger.info(
            "%s has %d entr%s; need two to compare — nothing to do yet",
            target, len(entries), "y" if len(entries) == 1 else "ies",
        )
        return 0
    previous, latest = entries[-2], entries[-1]
    logger.info("latest:   %s", _entry_stamp(latest))
    logger.info("previous: %s", _entry_stamp(previous))
    sections = ("ce_step", "game_solve", "scenario", "global_cache")
    for section in sections:
        old = _numeric_leaves(previous.get(section, {}))
        new = _numeric_leaves(latest.get(section, {}))
        shared = [key for key in new if key in old]
        if shared:
            logger.info("-- %s --", section)
        for key in shared:
            line = f"  {key}: {old[key]:.5g} -> {new[key]:.5g}"
            if key.endswith("_s") and new[key] > 0:
                ratio = old[key] / new[key]
                line += f"  ({ratio:.2f}x {'faster' if ratio >= 1 else 'slower'})"
            logger.info("%s", line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the CE/game/scenario hot paths and append to a "
        "BENCH_*.json perf trajectory.",
    )
    parser.add_argument("--preset", choices=sorted(PRESETS), default="bench")
    parser.add_argument("--slots", type=int, default=48)
    parser.add_argument(
        "--workers", type=int, default=min(4, os.cpu_count() or 1),
        help="process-pool width for the aggregate comparison",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_hotpaths.json"),
        help="perf-trajectory file to append to",
    )
    parser.add_argument(
        "--skip-scenario", action="store_true",
        help="only run the CE and game-solve micro benches",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smoke preset, micro benches only "
        "(shorthand for --preset smoke --skip-scenario)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="compare the two most recent entries in --out and exit "
        "without running any benches; a short history logs a note and "
        "exits 0",
    )
    args = parser.parse_args(argv)

    configure_logging()
    if args.compare:
        return compare_latest_entries(args.out)

    if args.quick:
        args.preset = "smoke"
        args.skip_scenario = True
    config = PRESETS[args.preset]()

    logger = get_logger("bench")

    logger.info("== CE battery step (%s preset) ==", args.preset)
    ce = _bench_ce_step(config)
    for name, value in ce.items():
        logger.info("  %s: %.5f", name, value)

    logger.info("== game solve ==")
    game = _bench_game_solve(config)
    for name, value in game.items():
        logger.info("  %s: %.5f", name, value)

    scenario: dict[str, object] = {}
    if not args.skip_scenario:
        logger.info("== scenario / aggregate ==")
        scenario = _bench_scenario(
            config, n_slots=args.slots, workers=args.workers
        )
        for name, value in scenario.items():
            rendered = f"{value:.5f}" if isinstance(value, float) else value
            logger.info("  %s: %s", name, rendered)

    environment = collect_environment()
    entry: dict[str, object] = {
        "environment": environment,
        # Trajectory key: entries are identified by the code revision
        # they measured.
        "key": environment["git_rev"] or "unknown",
        "preset": args.preset,
        "ce_step": ce,
        "game_solve": game,
        "scenario": scenario,
        "perf_counters": PERF.snapshot(),
        "global_cache": {
            "hits": global_game_cache().hits,
            "misses": global_game_cache().misses,
            "hit_rate": global_game_cache().hit_rate,
        },
    }
    write_bench_json(args.out, entry)
    logger.info("appended entry to %s", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
