"""``fleet-http`` workload: open-loop envelopes POSTed to the fleet server.

The ``fleet-drain`` fleet shape is served by an in-process
``create_fleet_server(FleetAggregator(...))`` on loopback.  The
:meth:`LoadGenerator.envelopes` stream is split into one-entry envelopes
and POSTed to ``/envelope`` at a fixed offered rate, from one thread
with one connection at a time.  Each request is timed from when it was
due to be sent, so a stall (a day-rollover burst of game solves) shows
up as queueing in the latency of the requests behind it.  The feed is
pushed: there is no repair feedback edge, unlike ``fleet-drain``.
Every run sends the whole 6-day feed, whatever ``--seconds`` says.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time
from pathlib import Path

from perfbench import fleet_drain
from perfbench.common import Op, Pass, coverage, end_to_end, layer_metrics, nearest_rank
from perfbench.hostspeed import HostProbe
from perfbench.tracing import traced_call

REQUEST_TIMEOUT_S = 30.0
MIN_REQUESTS = 1000
"""At least ten requests lie beyond the p99 latency."""
LATE_LIMIT_SHARE = 1.0
"""A run is invalid when the generator sends later than this share of
the inter-arrival interval at its p99, beyond the time it spent waiting
for the previous response: it could not keep its schedule.  Lateness
below one interval only adds to the measured latency, which counts from
the due time, so it cannot hide a slow server."""


class InvalidRun(RuntimeError):
    """The load generator fell behind its schedule: the run measured it."""


def bodies(seed: int) -> tuple[list, list[tuple[bytes, int]]]:
    """The specs and the one-entry envelope bodies, each with its day."""
    gen, specs = fleet_drain.workload(seed)
    events_per_day = gen.source_for(specs[0]).events_per_day
    out = []
    for tick, envelope in enumerate(gen.envelopes(specs)):
        for entry in envelope["entries"]:
            body = json.dumps({"entries": [entry]}).encode("utf-8")
            out.append((body, tick // events_per_day))
    return specs, out


class Served:
    """A fresh fleet behind a threaded HTTP server on an ephemeral port."""

    def __init__(self, specs) -> None:
        from repro.fleet.aggregator import FleetAggregator, create_fleet_server
        from repro.simulation.cache import GameSolutionCache

        self.cache = GameSolutionCache()
        self.fleet = fleet_drain.build(specs, self.cache)
        self.server = create_fleet_server(FleetAggregator(self.fleet), port=0)
        # Track handler threads so close() joins every one of them.
        self.server.daemon_threads = False
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(target=self.server.serve_forever)
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


def prepare(seed: int):
    """The ready state: specs, envelope bodies and a listening server."""
    specs, feed = bodies(seed)
    return specs, feed, Served(specs)


def post(port: int, body: bytes) -> tuple[int, int]:
    """POST one envelope; returns (status, accepted entries)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(
            "POST", "/envelope", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    accepted = json.loads(payload).get("accepted", 0) if response.status == 200 else 0
    return response.status, accepted


def open_loop(port: int, feed, rate: float, send=post):
    """Offer ``feed`` at ``rate`` requests/s; returns (pass, lateness, failed, accepted)."""
    from repro.perf.counters import PERF

    record = Pass(cold=True)
    lateness: list[float] = []
    failed = accepted = 0
    origin = time.perf_counter() + 0.05
    previous_end = origin
    for index, (body, day) in enumerate(feed):
        due = origin + index / rate
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        misses = PERF.get("cache.misses")
        start = time.perf_counter()
        lateness.append(start - max(due, previous_end))
        try:
            status, count = send(port, body)
        except (OSError, http.client.HTTPException, ValueError):
            status, count = 0, 0
        end = previous_end = time.perf_counter()
        if status != 200:
            failed += 1
        accepted += count
        record.ops.append(
            Op(due, start, end, 1, int(PERF.get("cache.misses") - misses), day=day)
        )
    record.wall_s = previous_end - origin
    return record, lateness, failed, accepted


def check_schedule(lateness: list[float], rate: float) -> None:
    late_p99 = nearest_rank(lateness, 0.99)
    limit = LATE_LIMIT_SHARE / rate
    if late_p99 > limit:
        raise InvalidRun(
            f"generator ran {late_p99 * 1e3:.2f} ms late at p99 "
            f"(limit {limit * 1e3:.2f} ms): it could not keep its schedule"
        )


def pass_problems(specs, feed, served: Served, failed: int, accepted: int, label: str) -> list[str]:
    """Output checks of one served pass.

    Every request must succeed and every entry sent must be accepted,
    and each community's timeline must equal an untimed in-process
    replay of the same envelopes on a fresh fleet.  The replay shares
    the served fleet's game cache: it checks the transport and ingest
    path, not the game solver (``table1`` and ``fleet-drain`` check
    solves on fresh caches), and skipping the solves halves its time.
    """
    problems = []
    if failed:
        problems.append(f"{label}: {failed} of {len(feed)} requests failed")
    if accepted != len(feed):
        problems.append(f"{label}: accepted {accepted} of {len(feed)} entries sent")
    replay = fleet_drain.build(specs, served.cache)
    for body, _ in feed:
        replay.ingest_envelope(json.loads(body))
    problems += [
        f"{label}: {cid}: served timeline != in-process replay"
        for cid in replay.community_ids
        if fleet_drain.timeline(replay.engine_of(cid))
        != fleet_drain.timeline(served.fleet.engine_of(cid))
    ]
    return problems


def _serve(served: Served, feed, rate: float, send=post):
    """One open-loop pass against ``served``; closes the server after it."""
    try:
        return open_loop(served.port, feed, rate, send)
    finally:
        served.close()


def run(root: Path, seed: int, seconds: float, trace: bool, rate: float) -> dict:
    """Measure one run; returns the result fields (see ``perfbench/run.py``)."""
    specs, feed = bodies(seed)
    # The whole feed, every run: its latency tail is set by the slowest
    # of the day rollovers, so a prefix of fewer days tails lower.
    if len(feed) < MIN_REQUESTS:
        raise ValueError(f"the fleet stream has only {len(feed)} envelopes")
    served = Served(specs)
    probe = HostProbe()
    # The untraced run times under the host probe, whose bursts run on
    # the client thread while it waits; traced runs report raw time.
    with contextlib.nullcontext() if trace else probe:
        record, lateness, failed, accepted = _serve(served, feed, rate)
    check_schedule(lateness, rate)
    # Checked after timing, so the replays stay out of the measurement.
    checks = [(served, failed, accepted, "untraced pass")]
    out: dict = {"attempted": len(feed), "failed": failed}
    if not trace:
        out["metrics"] = end_to_end([record], probe, attempted=len(feed), failed=failed)
    else:
        untraced_busy = sum(op.service_s for op in record.ops)
        served = Served(specs)
        (record, lateness, traced_failed, accepted), folded, delta = traced_call(
            lambda tracer: _serve(served, feed, rate, tracer.wrap("http.request", post))
        )
        check_schedule(lateness, rate)
        checks.append((served, traced_failed, accepted, "traced pass"))
        busy = folded.inclusive_s["http.request"]
        metrics = layer_metrics(folded, delta)
        metrics["http.server_s"] = busy - folded.inclusive_s["fleet.aggregator"]
        metrics["http.requests"] = len(feed)
        metrics["http.failed"] = traced_failed
        metrics["loadgen.late_p99_ms"] = nearest_rank(lateness, 0.99) * 1e3
        # The http remainder and the client's own span are left out, so
        # time no named layer accounts for shows as lost coverage.
        metrics["trace.coverage"] = coverage(folded, busy, exclude=("http.request",))
        metrics["trace.overhead"] = busy / untraced_busy
        out["metrics"] = metrics
    out["problems"] = [
        problem
        for checked, n_failed, n_accepted, label in checks
        for problem in pass_problems(specs, feed, checked, n_failed, n_accepted, label)
    ]
    return out
