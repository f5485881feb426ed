"""Fleet-wide Chrome-trace merge: one Perfetto file for the whole fleet.

The span tracer is process-global, so a fleet run already collects
every shard's and community's spans in one buffer — but the single-run
exporter (:meth:`~repro.obs.trace.Tracer.to_chrome_trace`) flattens
them onto one ``pid=1/tid=1`` row, which turns a 12-community fleet
tick into unreadable confetti.  This module re-homes each span onto a
deterministic process/thread grid:

- **pid 1** — the aggregator: ``fleet.tick``, ``fleet.envelope`` and
  anything else carrying no shard/community identity;
- **pid 2 + k** — shard *k* in ascending shard-id order, with
  ``fleet.shard_tick`` on **tid 1** and community *j* (ascending cid
  within the shard) on **tid 2 + j**.

Identity comes from span attributes: shard workers tag each pipeline
with ``{"shard", "community"}`` trace tags, and untagged descendants
(``detector.update`` under ``stream.slot``) inherit by walking the
parent chain.  The layout is a pure function of the fleet's sorted
shard/community ids, so two runs of the same fleet produce the same
grid — the tracing analogue of the fleet's determinism contract.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.fileio import atomic_write
from repro.obs.trace import Span, Tracer

AGGREGATOR_PID = 1
_SHARD_PID_BASE = 2
_SHARD_TID = 1
_COMMUNITY_TID_BASE = 2


def fleet_trace_layout(
    shard_communities: Mapping[str, Iterable[str]],
) -> dict[str, Any]:
    """Deterministic pid/tid grid for a fleet's shards and communities.

    ``shard_communities`` maps shard id to the community ids it owns
    (any iteration order; both levels are sorted here).
    """
    shards: dict[str, dict[str, Any]] = {}
    community_shard: dict[str, str] = {}
    for index, shard_id in enumerate(sorted(shard_communities)):
        communities = sorted(shard_communities[shard_id])
        shards[shard_id] = {
            "pid": _SHARD_PID_BASE + index,
            "communities": {
                cid: _COMMUNITY_TID_BASE + j for j, cid in enumerate(communities)
            },
        }
        for cid in communities:
            if cid in community_shard:
                raise ValueError(f"community {cid!r} owned by two shards")
            community_shard[cid] = shard_id
    return {
        "aggregator_pid": AGGREGATOR_PID,
        "shards": shards,
        "community_shard": community_shard,
    }


def _resolve_rows(
    spans: Iterable[Span], layout: Mapping[str, Any]
) -> dict[int, tuple[int, int]]:
    """Map every span id to its (pid, tid) row.

    A span's identity is its own ``shard``/``community`` attrs, else the
    nearest tagged ancestor's; spans with no tagged ancestor belong to
    the aggregator row.
    """
    by_id: dict[int, Span] = {span.span_id: span for span in spans}
    shards = layout["shards"]
    community_shard = layout["community_shard"]
    aggregator = (int(layout["aggregator_pid"]), 1)
    rows: dict[int, tuple[int, int]] = {}

    def resolve(span_id: int) -> tuple[int, int]:
        cached = rows.get(span_id)
        if cached is not None:
            return cached
        span = by_id.get(span_id)
        if span is None:
            return aggregator
        row = aggregator
        cid = span.attrs.get("community")
        sid = span.attrs.get("shard")
        if cid is not None and cid in community_shard:
            shard = shards[community_shard[cid]]
            row = (int(shard["pid"]), int(shard["communities"][cid]))
        elif sid is not None and sid in shards:
            row = (int(shards[sid]["pid"]), _SHARD_TID)
        elif span.parent_id is not None:
            row = resolve(span.parent_id)
        rows[span_id] = row
        return row

    for span_id in by_id:
        resolve(span_id)
    return rows


def to_fleet_chrome_trace(
    tracer: Tracer, layout: Mapping[str, Any]
) -> dict[str, Any]:
    """Merged Chrome trace-event JSON for a whole fleet run.

    Metadata (``M``) events name every process and thread row first;
    the span ``X`` events follow in open order, each on the row
    :func:`_resolve_rows` assigned.  Open it in Perfetto: one track
    group per shard, one lane per community.
    """
    spans = tracer.spans()
    rows = _resolve_rows(spans, layout)
    run_id = tracer.run_id or "run"
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": int(layout["aggregator_pid"]),
            "tid": 1,
            "args": {"name": f"repro-fleet:{run_id}"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": int(layout["aggregator_pid"]),
            "tid": 1,
            "args": {"name": "aggregator"},
        },
    ]
    for shard_id in sorted(layout["shards"]):
        shard = layout["shards"][shard_id]
        pid = int(shard["pid"])
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": _SHARD_TID,
                "args": {"name": f"shard:{shard_id}"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _SHARD_TID,
                "args": {"name": "shard"},
            }
        )
        for cid in sorted(shard["communities"]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": int(shard["communities"][cid]),
                    "args": {"name": f"community:{cid}"},
                }
            )
    last_us = max((s.end_us or s.start_us for s in spans), default=0)
    for span in spans:
        pid, tid = rows[span.span_id]
        end = span.end_us if span.end_us is not None else last_us
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_us,
                "dur": max(0, end - span.start_us),
                "pid": pid,
                "tid": tid,
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
        "metadata": {
            "run_id": run_id,
            "fleet_layout": {
                "aggregator_pid": int(layout["aggregator_pid"]),
                "shards": {
                    sid: {
                        "pid": int(shard["pid"]),
                        "communities": dict(shard["communities"]),
                    }
                    for sid, shard in layout["shards"].items()
                },
            },
            **tracer.metadata,
        },
    }


def write_fleet_trace(
    tracer: Tracer, layout: Mapping[str, Any], path: str | Path
) -> Path:
    """Serialize :func:`to_fleet_chrome_trace` to ``path`` (JSON)."""
    return atomic_write(path, json.dumps(to_fleet_chrome_trace(tracer, layout)))
