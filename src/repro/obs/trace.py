"""Low-overhead hierarchical span tracer with Chrome trace-event export.

The tracer records *spans* — named, nested intervals covering the
reproduction's structural units (run → game round → customer schedule →
CE/DP solve on the batch side; stream run → day → slot → detector update
on the streaming side).  It is **off by default**: every instrumentation
site calls ``TRACER.span(...)``, which returns a shared no-op context
manager while disabled, so the hot paths pay one attribute check and
nothing else, and golden-master digests stay bitwise identical.

Design constraints baked in:

- **Deterministic span ids** — a per-run sequence counter, never wall
  clock or randomness (the repro-lint DET rules apply here too).  Two
  traced runs of the same workload produce identically-numbered spans.
- **Monotonic timestamps** — ``time.perf_counter`` relative to the
  moment tracing was enabled (wall-clock functions are banned outside
  the service layer by DET002).
- **Perfetto-loadable export** — :meth:`Tracer.to_chrome_trace` emits
  the Chrome trace-event JSON object format (``X`` complete events with
  microsecond ``ts``/``dur``), which https://ui.perfetto.dev opens
  directly.

Usage::

    from repro.obs import TRACER

    TRACER.enable(run_id="fig6-bench-seed7")
    with TRACER.span("scenario.run", detector="aware"):
        ...
    TRACER.write("trace.json")
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from types import TracebackType
from typing import Any, Callable, TypeVar

from repro.fileio import atomic_write

_AttrValue = Any
_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass
class Span:
    """One recorded interval: name, position in the hierarchy, timing."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_us: int
    end_us: int | None = None
    attrs: dict[str, _AttrValue] = field(default_factory=dict)

    @property
    def duration_us(self) -> int:
        """Microseconds between start and end (0 while still open)."""
        if self.end_us is None:
            return 0
        return self.end_us - self.start_us

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record (the shape written to trace exports)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


@dataclass(frozen=True)
class TraceContext:
    """Compact cross-process trace context (rides envelope payloads).

    Carries just enough to stitch a remote child span under a local
    parent: the originating run id and the parent span id.  A receiver
    only honours the parent link when the run ids match — two unrelated
    traces never splice.
    """

    run_id: str
    span_id: int

    def to_dict(self) -> dict[str, Any]:
        return {"run_id": self.run_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TraceContext":
        unknown = set(payload) - {"run_id", "span_id"}
        if unknown:
            raise ValueError(f"unknown trace-context fields: {sorted(unknown)}")
        run_id = payload.get("run_id")
        span_id = payload.get("span_id")
        if not isinstance(run_id, str) or not run_id:
            raise ValueError(f"trace-context run_id must be a non-empty string, got {run_id!r}")
        if isinstance(span_id, bool) or not isinstance(span_id, int) or span_id < 1:
            raise ValueError(f"trace-context span_id must be a positive int, got {span_id!r}")
        return cls(run_id=run_id, span_id=span_id)


class _LiveSpan:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_parent_id", "_span_id")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        attrs: dict[str, _AttrValue],
        parent_id: int | None = None,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs
        self._parent_id = parent_id
        self._span_id: int | None = None

    def __enter__(self) -> Span:
        span = self._tracer._open(
            self._name, self._category, self._attrs, parent_id=self._parent_id
        )
        self._span_id = span.span_id
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self._span_id is not None:
            self._tracer._close(self._span_id)
        return False


class Tracer:
    """Hierarchical span recorder with a near-free disabled path.

    Spans opened via :meth:`span` nest through a per-thread stack (the
    lexical hierarchy); :meth:`begin`/:meth:`end` open *detached* spans
    for intervals that outlive any lexical scope (a streaming day spans
    many pump calls).  All span ids come from one deterministic sequence
    counter, so identical workloads yield identical traces up to
    timing.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.run_id: str | None = None
        self.metadata: dict[str, Any] = {}
        self._spans: list[Span] = []
        self._open_spans: dict[int, Span] = {}
        self._next_id = 1
        self._origin = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def enable(
        self, *, run_id: str = "run", metadata: dict[str, Any] | None = None
    ) -> None:
        """Start a fresh trace: clears prior spans and resets the id
        sequence and the time origin."""
        with self._lock:
            self.enabled = True
            self.run_id = run_id
            self.metadata = dict(metadata) if metadata else {}
            self._spans = []
            self._open_spans = {}
            self._next_id = 1
            self._origin = time.perf_counter()
            self._local = threading.local()

    def disable(self) -> None:
        """Stop recording (the collected spans stay readable)."""
        with self._lock:
            self.enabled = False

    # ------------------------------------------------------------------
    def _now_us(self) -> int:
        return int((time.perf_counter() - self._origin) * 1_000_000)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_span_id(self) -> int | None:
        """Innermost open stack span on this thread (None when idle)."""
        if not self.enabled:  # repro: noqa[CONC001] lock-free fast path; a stale read costs one extra no-op span check, never corruption
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """Propagatable context for the innermost open span, if any."""
        span_id = self.current_span_id
        run_id = self.run_id  # repro: noqa[CONC001] lock-free fast path; run_id only changes on enable(), a stale read yields a context the receiver ignores
        if span_id is None or run_id is None:
            return None
        return TraceContext(run_id=run_id, span_id=span_id)

    def _open(
        self,
        name: str,
        category: str,
        attrs: dict[str, _AttrValue],
        parent_id: int | None = None,
    ) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            stack = self._stack()
            span = Span(
                span_id=span_id,
                parent_id=(
                    parent_id
                    if parent_id is not None
                    else (stack[-1] if stack else None)
                ),
                name=name,
                category=category,
                start_us=self._now_us(),
                attrs=attrs,
            )
            self._spans.append(span)
            self._open_spans[span_id] = span
            stack.append(span_id)
            return span

    def _close(self, span_id: int) -> None:
        with self._lock:
            span = self._open_spans.pop(span_id, None)
            if span is not None:
                span.end_us = self._now_us()
            stack = self._stack()
            if span_id in stack:
                del stack[stack.index(span_id):]

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        category: str = "repro",
        parent_id: int | None = None,
        **attrs: _AttrValue,
    ) -> _LiveSpan | _NoopSpan:
        """Context manager recording one nested span (no-op if disabled).

        ``parent_id`` overrides the stack parent — used to splice a span
        under a *remote* parent carried by a :class:`TraceContext` (the
        span still joins this thread's nesting stack for its children).
        """
        if not self.enabled:  # repro: noqa[CONC001] lock-free fast path; a stale read costs one extra no-op span check, never corruption
            return _NOOP_SPAN
        return _LiveSpan(self, name, category, attrs, parent_id)

    def begin(
        self,
        name: str,
        *,
        category: str = "repro",
        parent_id: int | None = None,
        **attrs: _AttrValue,
    ) -> int | None:
        """Open a detached span (not on the nesting stack); returns its id.

        For intervals with no lexical scope — a streaming day that spans
        many pump calls.  Close with :meth:`end`.  Returns ``None`` while
        the tracer is disabled.
        """
        if not self.enabled:  # repro: noqa[CONC001] lock-free fast path; a stale read costs one extra no-op span check, never corruption
            return None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                category=category,
                start_us=self._now_us(),
                attrs=attrs,
            )
            self._spans.append(span)
            self._open_spans[span_id] = span
            return span_id

    def end(self, span_id: int | None) -> None:
        """Close a detached span opened by :meth:`begin` (None is a no-op)."""
        if span_id is None or not self.enabled:  # repro: noqa[CONC001] lock-free fast path; a stale read costs one extra no-op span check, never corruption
            return
        with self._lock:
            span = self._open_spans.pop(span_id, None)
            if span is not None:
                span.end_us = self._now_us()

    def traced(
        self, name: str, *, category: str = "repro"
    ) -> Callable[[_F], _F]:
        """Decorator form: run the wrapped callable inside a span."""

        def decorate(func: _F) -> _F:
            @wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name, category=category):
                    return func(*args, **kwargs)

            return wrapper  # type: ignore[return-value]

        return decorate

    # ------------------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in open order."""
        with self._lock:
            return tuple(self._spans)

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (object format) — open it in Perfetto.

        Spans become ``X`` (complete) events with microsecond ``ts`` and
        ``dur``; span/parent ids and attributes ride along in ``args``.
        Still-open spans export with the trace's final timestamp as
        their end so the file always loads.
        """
        with self._lock:
            spans = list(self._spans)
            run_id = self.run_id
            metadata = dict(self.metadata)
        last_us = max((s.end_us or s.start_us for s in spans), default=0)
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": f"repro:{run_id or 'run'}"},
            }
        ]
        for span in spans:
            end = span.end_us if span.end_us is not None else last_us
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": max(0, end - span.start_us),
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **span.attrs,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"run_id": run_id, **metadata},
        }

    def write(self, path: str | Path) -> Path:
        """Serialize :meth:`to_chrome_trace` to ``path`` (JSON)."""
        return atomic_write(path, json.dumps(self.to_chrome_trace()))


TRACER = Tracer()
"""The process-global tracer every instrumentation site consults."""
