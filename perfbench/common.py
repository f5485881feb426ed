"""Shared measurement model of the three workloads.

Every workload makes *passes* over its input; a pass is a sequence of
*operations* (a scenario run, a fleet tick, an HTTP request), and each
operation completes some number of *events* (scenario slots, stream
events).  The end-to-end metrics are computed from that one model, so
each metric means the same thing on every workload:

- ``cold_s``: the summed service time of a pass that starts from an
  empty game cache;
- ``cached_s``: per pass, the summed service time of operations that
  solved no game (no cache miss), median over passes that have any;
- ``events_per_s``: events per second of summed service time, median
  over passes;
- ``tick_p50_ms``: median service time of one operation;
- ``day_max_tick_ms``: the slowest operation of each simulated day,
  median over the days (an operation with no day groups by pass);
- ``latency_p50_ms`` / ``latency_p99_ms``: per-event latency from when
  the event was due to when its operation finished.  In a closed loop
  an event is due when its operation starts; in the open HTTP loop it is
  due at its scheduled send time.

Every time is scaled to the reference host speed by the run's
:class:`~perfbench.hostspeed.HostProbe` (see that module for why).
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field


@dataclass
class Op:
    """One operation: due time, service start and end, events completed."""

    due: float
    start: float
    end: float
    events: int
    cache_misses: int
    day: int | None = None

    @property
    def service_s(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    """One pass over the workload input.

    ``wall_s`` is the raw wall time of the pass; only traced runs use it
    (coverage and overhead), since the end-to-end metrics are scaled.
    """

    cold: bool
    wall_s: float = 0.0
    ops: list[Op] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(op.events for op in self.ops)


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[Pass], probe, *, attempted: int, failed: int) -> dict[str, float]:
    """Every end-to-end metric except ``setup_s`` from the recorded passes.

    ``probe`` is the :class:`~perfbench.hostspeed.HostProbe` that ran
    while the passes were timed.
    """
    rows = [[(op, probe.scaled(op.start, op.end)) for op in p.ops] for p in passes]
    busy = [sum(service for _, service in row) for row in rows]
    cold = [b for p, b in zip(passes, busy) if p.cold]
    cached = [
        sum(service for op, service in row if op.cache_misses == 0)
        for row in rows
        if any(op.cache_misses == 0 for op, _ in row)
    ]
    day_max: dict[tuple[int, int | None], float] = {}
    latencies: list[float] = []
    for index, row in enumerate(rows):
        for op, service in row:
            key = (index, op.day)
            day_max[key] = max(day_max.get(key, 0.0), service)
            latency = probe.scaled(op.due, op.end)
            latencies.extend([latency] * op.events)
    return {
        "cold_s": statistics.median(cold),
        "cached_s": statistics.median(cached),
        "events_per_s": statistics.median(p.events / b for p, b in zip(passes, busy)),
        "tick_p50_ms": statistics.median(s for row in rows for _, s in row) * 1e3,
        "day_max_tick_ms": statistics.median(day_max.values()) * 1e3,
        "latency_p50_ms": nearest_rank(latencies, 0.50) * 1e3,
        "latency_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def coverage(folded, wall_s: float, exclude: tuple[str, ...] = ()) -> float:
    """Share of ``wall_s`` that the named layers' self-time accounts for.

    ``exclude`` names the benchmark's own spans (a root it wraps around
    the program, a client-side request), whose self-time is time no
    layer of the program claims.
    """
    named = sum(value for name, value in folded.self_s.items() if name not in exclude)
    return named / wall_s


def layer_metrics(folded, perf_delta: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one folded phase plus its PERF counter deltas."""
    s, calls, counts = folded.self_s, folded.calls, folded.counts
    return {
        "prediction.fit_s": s.get("prediction.fit", 0.0),
        "prediction.fits": counts.get("prediction.fits", 0.0),
        "prediction.fit_sweeps": counts.get("prediction.fit_sweeps", 0.0),
        "prediction.capped_fits": counts.get("prediction.capped_fits", 0.0),
        "prediction.predict_s": s.get("prediction.predict", 0.0),
        "scheduling.solve_s": s.get("scheduling.solve", 0.0),
        "scheduling.solve_calls": counts.get("scheduling.solve_calls", 0.0),
        "scheduling.solves": perf_delta.get("game.solves", 0.0),
        "scheduling.lockstep_s": s.get("scheduling.lockstep", 0.0),
        "scheduling.lockstep_games": counts.get("scheduling.lockstep_games", 0.0),
        "scheduling.rounds": perf_delta.get("game.rounds", 0.0),
        "scheduling.ce_evaluations": perf_delta.get("ce.evaluations", 0.0),
        "scheduling.dp_cells": perf_delta.get("dp.cells", 0.0),
        "kernels.clamp_decisions_s": s.get("kernels.clamp_decisions", 0.0),
        "kernels.clamp_decisions_calls": calls.get("kernels.clamp_decisions", 0),
        "kernels.battery_costs_s": s.get("kernels.battery_costs", 0.0),
        "kernels.battery_costs_calls": calls.get("kernels.battery_costs", 0),
        "kernels.dp_backward_s": s.get("kernels.dp_backward", 0.0),
        "kernels.dp_backward_calls": calls.get("kernels.dp_backward", 0),
        "cache.hits": perf_delta.get("cache.hits", 0.0),
        "cache.misses": perf_delta.get("cache.misses", 0.0),
        "cache.lookup_s": s.get("cache.lookup", 0.0),
        "calibration.self_s": s.get("calibration.self", 0.0),
        "calibration.calls": calls.get("calibration.self", 0),
        "detection.pomdp_s": s.get("detection.pomdp", 0.0),
        "detection.observe_s": s.get("detection.observe", 0.0),
        "detection.policy_step_s": s.get("detection.policy_step", 0.0),
        "data.history_s": s.get("data.history", 0.0),
        "data.community_s": s.get("data.community", 0.0),
        "scenario.self_s": s.get("scenario.run", 0.0),
        "stream.handle_s": s.get("stream.handle", 0.0),
        "stream.events": perf_delta.get("stream.events", 0.0),
        "fleet.tick_s": s.get("fleet.tick", 0.0),
        "fleet.envelope_s": s.get("fleet.envelope", 0.0)
        + s.get("fleet.aggregator", 0.0),
        "fleet.ticks": perf_delta.get("fleet.ticks", 0.0),
    }


COUNT_METRICS = (
    "prediction.fits",
    "prediction.fit_sweeps",
    "prediction.capped_fits",
    "scheduling.solve_calls",
    "scheduling.solves",
    "scheduling.lockstep_games",
    "scheduling.rounds",
    "scheduling.ce_evaluations",
    "scheduling.dp_cells",
    "kernels.clamp_decisions_calls",
    "kernels.battery_costs_calls",
    "kernels.dp_backward_calls",
    "cache.hits",
    "cache.misses",
    "calibration.calls",
    "stream.events",
    "fleet.ticks",
)
"""Per-layer metrics that are exact counts: they must repeat exactly for
a given seed, so repeated traced phases are checked for equality."""


def median_layers(phases: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each per-layer metric over repeated traced phases.

    Returns the medians and whether every exact count repeated exactly.
    """
    repeat = all(
        phase[name] == phases[0][name] for phase in phases for name in COUNT_METRICS
    )
    return {name: statistics.median(p[name] for p in phases) for name in phases[0]}, repeat
