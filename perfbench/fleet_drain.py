"""``fleet-drain`` workload: closed-loop in-process fleet ticks.

The default fleet shape (12 communities on 4 shards, 12 customers and 4
monitored meters each, smoke game config) is built with
:class:`LoadGenerator` + :func:`build_fleet` and drained with
``FleetEngine.tick()`` until every source is exhausted.  One operation
is one tick; its events are the stream events it pumped.  Each drain
starts from a fresh fleet and an empty game cache, and runs 6 days: the
synthetic clean prices repeat every 7 days, so a longer drain would
replay day 0's games from the cache.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfbench.common import Op, Pass, coverage, end_to_end, layer_metrics, median_layers
from perfbench.hostspeed import HostProbe
from perfbench.tracing import traced_call

N_COMMUNITIES = 12
N_SHARDS = 4
N_CUSTOMERS = 12
N_METERS = 4
N_DAYS = 6
ATTACK_DAYS = N_DAYS // 2
MIN_DRAINS = 2
DRAIN_S = 8.0
"""About one drain on a 2-core VM.  A run makes ``ceil(seconds /
DRAIN_S)`` drains (at least ``MIN_DRAINS``): a count fixed by
``--seconds``, not by the clock."""
SOLO_SAMPLES = 2
REP_SEED_STRIDE = 7919


def workload(seed: int, rep: int = 0):
    """The load generator and community specs of drain ``rep`` of a run.

    The world (the smoke-preset community every tenant shares) is fixed
    and :class:`LoadGenerator` draws the tenants from the seed: attack
    strengths, compromised meters and pipeline seeds.  Its uniform
    attack windows would also make the attack *volume* random (19 to 37
    attacked community-days over seeds 0-19), and each attacked day is
    one more game solve, so the windows are replaced by a level plan:
    every community is attacked for ``ATTACK_DAYS`` days, half of them
    from day 0 and the other half up to the last day.  Every day then
    has the same number of attacked communities, so every day rollover
    solves the same number of games; the seed picks which communities
    are attacked first.  Later drains of a run draw new tenants.
    """
    from repro.core.presets import smoke_preset
    from repro.fleet import LoadGenerator

    base = smoke_preset()
    base = base.with_updates(
        n_customers=N_CUSTOMERS,
        detection=replace(base.detection, n_monitored_meters=N_METERS),
    )
    gen = LoadGenerator(
        base,
        n_communities=N_COMMUNITIES,
        n_days=N_DAYS,
        seed=seed + REP_SEED_STRIDE * rep,
    )
    first = np.random.default_rng([seed, rep]).permutation(N_COMMUNITIES) % 2 == 0
    starts = np.where(first, 0, N_DAYS - ATTACK_DAYS)
    specs = tuple(
        replace(spec, attack_days=(int(start), int(start) + ATTACK_DAYS))
        for spec, start in zip(gen.specs(), starts)
    )
    return gen, specs


def build(specs, cache=None):
    """A fresh fleet over ``cache``, by default an empty private one."""
    from repro.fleet import build_fleet
    from repro.simulation.cache import GameSolutionCache

    return build_fleet(
        specs, n_shards=N_SHARDS, cache=GameSolutionCache() if cache is None else cache
    )


def prepare(seed: int):
    """The ready state: the first drain's specs and its built fleet."""
    _, specs = workload(seed)
    return specs, build(specs)


def drain(fleet, events_per_day: int) -> Pass:
    """Tick ``fleet`` dry, recording one operation per tick."""
    from repro.perf.counters import PERF

    record = Pass(cold=True)
    pass_start = time.perf_counter()
    while not fleet.exhausted:
        misses = PERF.get("cache.misses")
        start = time.perf_counter()
        pumped = fleet.tick()
        end = time.perf_counter()
        record.ops.append(
            Op(
                start,
                start,
                end,
                pumped,
                int(PERF.get("cache.misses") - misses),
                day=len(record.ops) // events_per_day,
            )
        )
    record.wall_s = time.perf_counter() - pass_start
    return record


def accounting_problems(specs, fleet, record: Pass, gen, label: str) -> list[str]:
    """Exact event and slot accounting of one drained fleet."""
    sources = [gen.source_for(spec) for spec in specs]
    expected_events = sum(source.n_events for source in sources)
    expected_slots = sum(source.n_days * source.slots_per_day for source in sources)
    totals = fleet.status()["totals"]
    checks = {
        "events pumped": (record.events, expected_events),
        "events processed": (totals["events_processed"], expected_events),
        "slots processed": (totals["slots_processed"], expected_slots),
        "gaps": (totals["gaps"], 0),
        "ticks": (len(record.ops), max(source.n_events for source in sources)),
    }
    return [
        f"{label}: {name} {got} != {want}"
        for name, (got, want) in checks.items()
        if got != want
    ]


def timeline(engine) -> list[dict]:
    return [detection.to_dict() for detection in engine.timeline]


def solo_problems(specs, fleet, seed: int) -> list[str]:
    """Sampled communities' fleet timelines against solo engine runs."""
    from repro.simulation.cache import GameSolutionCache

    rng = np.random.default_rng(seed)
    picks = rng.choice(len(specs), size=SOLO_SAMPLES, replace=False)
    problems = []
    for index in sorted(int(i) for i in picks):
        spec = specs[index]
        solo = spec.build_engine(cache=GameSolutionCache())
        solo.run()
        if timeline(solo) != timeline(fleet.engine_of(spec.community_id)):
            problems.append(f"{spec.community_id}: fleet timeline != solo run")
    return problems


def _traced_drain(specs, events_per_day):
    fleet = build(specs)
    record, folded, delta = traced_call(lambda _: drain(fleet, events_per_day))
    layers = layer_metrics(folded, delta)
    layers["trace.coverage"] = coverage(folded, record.wall_s)
    return fleet, record, layers


def run(root: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one run; returns the result fields (see ``perfbench/run.py``)."""
    problems: list[str] = []
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict[str, float]]] = []
    checked = None
    probe = HostProbe()
    # Untraced runs time under the host probe; traced runs report raw
    # self-time, which the probe's bursts would otherwise land in.
    with contextlib.nullcontext() if trace else probe:
        for rep in range(max(MIN_DRAINS, math.ceil(seconds / DRAIN_S))):
            # A traced run repeats rep 0, so its exact counts can be compared.
            gen, specs = workload(seed, 0 if trace else rep)
            events_per_day = gen.source_for(specs[0]).events_per_day
            fleet = build(specs)
            record = drain(fleet, events_per_day)
            passes.append(record)
            problems += accounting_problems(specs, fleet, record, gen, f"drain {rep}")
            if checked is None:
                checked = (specs, fleet)
            if trace:
                fleet, record, layers = _traced_drain(specs, events_per_day)
                traced.append((record, layers))
                problems += accounting_problems(specs, fleet, record, gen, "traced drain")
    attempted = sum(p.events for p in passes)
    out: dict = {"problems": problems, "attempted": attempted, "failed": 0}
    if trace:
        metrics, repeated = median_layers([layers for _, layers in traced])
        if not repeated:
            problems.append("exact counts differ between traced drains")
        metrics["trace.overhead"] = statistics.median(
            record.wall_s for record, _ in traced
        ) / statistics.median(p.wall_s for p in passes)
        out["metrics"] = metrics
    else:
        out["metrics"] = end_to_end(passes, probe, attempted=attempted, failed=0)
    # After timing, so the solo runs stay out of the measurement.
    problems += solo_problems(*checked, seed)
    return out
