"""Atomic replacement of on-disk artifacts (``repro.fileio``)."""

from __future__ import annotations

import json

import pytest

from repro.fileio import atomic_write
from repro.obs.fleettrace import fleet_trace_layout, write_fleet_trace
from repro.obs.trace import Tracer
from repro.perf.bench import write_bench_json


class _SerializerFailed(RuntimeError):
    pass


def _fail_mid_write(handle) -> None:
    handle.write(b'{"half": ')
    raise _SerializerFailed("serializer died mid-write")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_bytes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_bytes(b'{"old": true}\n')
        with pytest.raises(_SerializerFailed):
            atomic_write(target, _fail_mid_write)
        assert target.read_bytes() == b'{"old": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]

    def test_failed_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(_SerializerFailed):
            atomic_write(tmp_path / "new.npz", _fail_mid_write)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "data, expected",
        [("text ✓", "text ✓".encode("utf-8")), (b"\x00raw", b"\x00raw")],
    )
    def test_replaces_content_and_creates_parents(self, tmp_path, data, expected):
        target = tmp_path / "deep" / "dir" / "artifact"
        assert atomic_write(target, data) == target
        assert target.read_bytes() == expected
        atomic_write(target, lambda handle: handle.write(b"second"))
        assert target.read_bytes() == b"second"
        assert sorted(p.name for p in target.parent.iterdir()) == ["artifact"]


class TestRoutedWriters:
    """The formerly in-place writers go through :func:`atomic_write`."""

    def test_bench_append_keeps_file_when_entry_cannot_serialize(self, tmp_path):
        target = tmp_path / "BENCH.json"
        write_bench_json(target, {"run": 1})
        before = target.read_bytes()
        with pytest.raises(TypeError):
            write_bench_json(target, {"run": object()})
        assert target.read_bytes() == before
        write_bench_json(target, {"run": 2})
        assert [e["run"] for e in json.loads(target.read_text())["entries"]] == [1, 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH.json"]

    def test_trace_writers_leave_no_temp_files(self, tmp_path):
        tracer = Tracer()
        tracer.enable(run_id="atomic")
        with tracer.span("work"):
            pass
        tracer.write(tmp_path / "trace.json")
        write_fleet_trace(
            tracer, fleet_trace_layout({"s0": ["c0"]}), tmp_path / "fleet.json"
        )
        tracer.disable()
        for name in ("trace.json", "fleet.json"):
            assert json.loads((tmp_path / name).read_text())["traceEvents"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.json", "trace.json"]
