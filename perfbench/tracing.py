"""Outside-in span tracer for the benchmark's traced runs.

The program under test is not modified.  Instead the traced run
replaces a fixed set of public entry points with thin wrappers, each
patched *where its caller looks it up* (``scenario.py`` imports
``measure_single_event_rates`` by name, so the wrapper goes into
``repro.simulation.scenario``, not into the defining module).

Every wrapper call records one span ``(metric, start, end, parent)``.
Parents come from a per-thread stack, so spans opened on an HTTP
handler thread nest under that thread's own callers.  Spans stay in
memory; :meth:`SpanTracer.fold` turns them into per-metric self-time
(a span's duration minus the durations of its direct children) and
call counts when the phase ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

AfterHook = Callable[["SpanTracer", tuple, dict, Any], None]


class SpanTracer:
    """Records wrapper spans and folds them into self-time per metric."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        # (span id, parent id or -1, metric, start, end); list.append is
        # atomic under the GIL, so handler threads may record concurrently.
        self._spans: list[tuple[int, int, str, float, float]] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, metric: str, fn: Callable, after: AfterHook | None = None) -> Callable:
        """``fn`` wrapped so that each call records a ``metric`` span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._spans.append((span_id, parent, metric, start, end))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self._counts[name] += value

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, metric: str, after: AfterHook | None = None) -> None:
        """Replace ``owner.attr`` (module, class or instance) by a traced wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(metric, original, after))
        self._patches.append((owner, attr, own, original))

    def unpatch_all(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def fold(self) -> "Folded":
        """Fold and clear the spans and counts recorded so far."""
        spans, self._spans = self._spans, []
        counts, self._counts = dict(self._counts), defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        folded = Folded(counts=counts)
        for span_id, _, metric, start, end in spans:
            duration = end - start
            folded.self_s[metric] += duration - child_time.get(span_id, 0.0)
            folded.inclusive_s[metric] += duration
            folded.calls[metric] += 1
        return folded


@dataclass
class Folded:
    """Per-metric self-time, inclusive time and call counts of one phase.

    ``inclusive_s`` double-counts a metric whose spans nest inside each
    other; the benchmark reads it only for non-recursive root spans.
    """

    counts: dict[str, float]
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    inclusive_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def _count_svr_fit(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    svr = args[0]
    tracer.count("prediction.fits")
    tracer.count("prediction.fit_sweeps", svr.n_sweeps)
    if svr.n_sweeps >= svr.max_iterations:
        tracer.count("prediction.capped_fits")


def _count_lockstep(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("scheduling.lockstep_games", len(result))


def _count_solve(tracer: SpanTracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("scheduling.solve_calls")


def install_layer_spans(tracer: SpanTracer) -> None:
    """Patch every layer entry point the benchmark attributes time to."""
    from repro.detection import single_event
    from repro.detection.long_term import LongTermDetector
    from repro.detection.solvers import PbviPolicy, QmdpPolicy
    from repro.fleet.aggregator import FleetAggregator
    from repro.fleet.engine import FleetEngine
    from repro.kernels import get_backend
    from repro.prediction.price import AwarePricePredictor, UnawarePricePredictor
    from repro.prediction.svr import SupportVectorRegressor
    from repro.scheduling.game import SchedulingGame
    from repro.simulation import scenario
    from repro.simulation.cache import GameSolutionCache
    from repro.stream import pipeline

    patch = tracer.patch
    # data
    patch(scenario, "generate_history", "data.history")
    patch(scenario, "build_community", "data.community")
    patch(pipeline, "build_community", "data.community")
    # prediction: the predictor's feature assembly and the SVR itself
    for predictor in (AwarePricePredictor, UnawarePricePredictor):
        patch(predictor, "fit", "prediction.fit")
        patch(predictor, "predict_day", "prediction.predict")
    patch(SupportVectorRegressor, "fit", "prediction.fit", _count_svr_fit)
    patch(SupportVectorRegressor, "predict", "prediction.predict")
    # simulation.calibration
    patch(scenario, "measure_single_event_rates", "calibration.self")
    # detection
    patch(scenario, "build_detection_pomdp", "detection.pomdp")
    patch(pipeline, "build_detection_pomdp", "detection.pomdp")
    patch(QmdpPolicy, "__init__", "detection.pomdp")
    patch(PbviPolicy, "__init__", "detection.pomdp")
    patch(single_event.SingleEventDetector, "observe_meters", "detection.observe")
    patch(LongTermDetector, "step", "detection.policy_step")
    # simulation.cache: simulator memo front, cache lookups and stores
    simulator = single_event.CommunityResponseSimulator
    patch(simulator, "response", "cache.lookup")
    patch(simulator, "prefetch", "cache.lookup")
    for method in ("get_or_solve", "peek", "put", "register_prices"):
        patch(GameSolutionCache, method, "cache.lookup")
    # scheduling
    patch(SchedulingGame, "__init__", "scheduling.solve")
    patch(SchedulingGame, "solve", "scheduling.solve", _count_solve)
    patch(single_event, "solve_games", "scheduling.lockstep", _count_lockstep)
    # kernels: the methods of the backend object the solvers resolve
    backend = get_backend()
    patch(backend, "clamp_decisions", "kernels.clamp_decisions")
    patch(backend, "battery_costs", "kernels.battery_costs")
    patch(backend, "dp_backward", "kernels.dp_backward")
    patch(backend, "dp_backward_batch", "kernels.dp_backward")
    # stream and fleet
    patch(pipeline.OnlinePipeline, "handle", "stream.handle")
    patch(FleetEngine, "tick", "fleet.tick")
    patch(FleetEngine, "ingest_envelope", "fleet.envelope")
    patch(FleetAggregator, "ingest_envelope", "fleet.aggregator")


def traced_call(call: Callable[[SpanTracer], Any]) -> tuple[Any, Folded, dict[str, float]]:
    """Run ``call(tracer)`` with every layer span installed.

    Returns its result, the folded spans and the ``PERF`` counter deltas
    of the call.  The patches are removed before returning, so untraced
    work around it runs the program unmodified.
    """
    from repro.perf.counters import PERF

    tracer = SpanTracer()
    install_layer_spans(tracer)
    baseline = PERF.snapshot()
    try:
        result = call(tracer)
    finally:
        tracer.unpatch_all()
    return result, tracer.fold(), PERF.delta_since(baseline)
