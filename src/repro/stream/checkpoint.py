"""Checkpoint/resume for streaming engines.

A checkpoint is one self-contained JSON document: the engine's *build
spec* (how to reconstruct the world from nothing — configuration,
detector kind, policy, seeds) plus its *runtime state* (source cursor,
hacking-process compromises, detector beliefs, detection timeline, and
the bit-generator state of the shared RNG).

Resume rebuilds the world deterministically from the build spec — every
setup-time draw replays identically because construction is seeded, and
the expensive game solves come from the content-addressed solution
cache — then overwrites the mutable runtime state.  Floats survive the
JSON round trip exactly (``repr`` shortest-round-trip), and the RNG
resumes from its serialized bit-generator state, so a killed stream
continues *bitwise-identically* to one that never stopped.  The property
test in ``tests/test_stream_checkpoint.py`` asserts this over random cut
points.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.config import config_from_dict
from repro.faults.plan import FaultPlan
from repro.fileio import atomic_write
from repro.obs.manifest import build_manifest
from repro.simulation.cache import GameSolutionCache

if TYPE_CHECKING:
    from repro.stream.pipeline import StreamEngine

CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, torn, or not a checkpoint at all.

    Raised for missing files, truncated/bit-flipped JSON, wrong format
    markers, unsupported versions and missing sections — every way a
    crash or bad disk can damage a checkpoint.  The loader fails loudly
    with this instead of resuming from corrupt state; the chaos suite
    drives each damage mode through :mod:`repro.faults.chaos`.
    """


def checkpoint_payload(engine: Any) -> dict[str, Any]:
    """The JSON document for one engine (build spec + runtime state)."""
    if engine.build_spec is None:
        raise ValueError(
            "engine has no build spec; only engines created by "
            "build_replay_engine/build_synthetic_engine can be checkpointed"
        )
    spec = engine.build_spec
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        # Provenance only — the loader ignores it, and it carries no
        # timestamps, so identical runs still produce identical files.
        "manifest": build_manifest(
            spec.get("config"),
            seeds=None if "seed" not in spec else {"stream": spec["seed"]},
            command=spec.get("kind"),
        ),
        "build": spec,
        "state": engine.state_dict(),
    }


def save_checkpoint(engine: Any, path: str | Path) -> Path:
    """Atomically persist an engine's full resumable state.

    Writes to a sibling temp file and renames into place, so a crash (or
    the service's SIGTERM handler racing a kill) never leaves a torn
    checkpoint behind.
    """
    return atomic_write(path, json.dumps(checkpoint_payload(engine)))


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint document.

    Raises :class:`CheckpointError` on any damage: unreadable file,
    invalid JSON, wrong format marker, unsupported version, missing
    sections.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: invalid JSON ({exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: not a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a stream checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    for key in ("build", "state"):
        if key not in payload:
            raise CheckpointError(f"checkpoint missing {key!r} section: {path}")
    return payload


def resume_engine(
    source: str | Path | dict[str, Any],
    *,
    cache: GameSolutionCache | None = None,
) -> "StreamEngine":
    """Rebuild an engine from a checkpoint and restore its runtime state.

    Parameters
    ----------
    source:
        Checkpoint file path, or an already-loaded payload dict.
    cache:
        Game-solution cache for the rebuild (defaults to the process
        global); a warm cache makes replay-world reconstruction cheap.

    Returns
    -------
    A :class:`~repro.stream.pipeline.StreamEngine` whose next event —
    and every event after it — matches what the original engine would
    have produced had it never stopped.
    """
    from repro.stream.pipeline import build_replay_engine, build_synthetic_engine

    payload = source if isinstance(source, dict) else load_checkpoint(source)
    build = payload["build"]
    kind = build.get("kind")
    config = config_from_dict(build["config"])
    faults = build.get("faults")
    plan = None if faults is None else FaultPlan.from_dict(faults)
    if kind == "replay":
        engine = build_replay_engine(
            config,
            detector=build["detector"],
            n_slots=int(build["n_slots"]),
            policy=build["policy"],
            calibration_trials=int(build["calibration_trials"]),
            seed=build["seed"],
            cache=cache,
            faults=plan,
            # Pre-taxonomy checkpoints predate attack families.
            attack_family=build.get("attack_family", "peak_increase"),
        )
    elif kind == "synthetic":
        from repro.stream.source import ScriptedOccurrence

        engine = build_synthetic_engine(
            config,
            n_days=int(build["n_days"]),
            attack_days=tuple(build["attack_days"]),
            hacked_meters=tuple(build["hacked_meters"]),
            attack_strength=float(build["attack_strength"]),
            tp_rate=float(build["tp_rate"]),
            fp_rate=float(build["fp_rate"]),
            detector=build["detector"],
            seed=int(build["seed"]),
            cache=cache,
            faults=plan,
            # Pre-taxonomy checkpoints carry no occurrence script.
            occurrences=tuple(
                ScriptedOccurrence.from_dict(payload)
                for payload in build.get("occurrences", [])
            ),
        )
    else:
        raise ValueError(f"unknown checkpoint build kind: {kind!r}")
    engine.restore(payload["state"])
    return engine
