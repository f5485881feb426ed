"""``repro-bench --compare`` degrades gracefully on short trajectories."""

import io
import json
from pathlib import Path

import pytest

from repro.obs.logs import configure_logging
from repro.perf.bench import compare_latest_entries, main as bench_main

BENCH_HOTPATHS = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"


@pytest.fixture()
def log_output():
    """Capture the repro logger's INFO output for assertions."""
    buffer = io.StringIO()
    configure_logging(stream=buffer)
    yield buffer
    configure_logging()


def _entry(backend: str, solve_s: float) -> dict:
    return {
        "backend": backend,
        "environment": {"git_rev": "abc", "timestamp": "t"},
        "game_solve": {"solve_s": solve_s},
    }


def _write(path, entries) -> None:
    path.write_text(json.dumps({"entries": entries}))


class TestCompareLatestEntries:
    def test_missing_file_is_not_an_error(self, tmp_path, log_output):
        code = compare_latest_entries(tmp_path / "BENCH.json")
        assert code == 0
        assert "nothing to compare" in log_output.getvalue()

    def test_empty_trajectory_is_not_an_error(self, tmp_path, log_output):
        target = tmp_path / "BENCH.json"
        _write(target, [])
        assert compare_latest_entries(target) == 0
        assert "0 entries" in log_output.getvalue()

    def test_single_entry_is_not_an_error(self, tmp_path, log_output):
        target = tmp_path / "BENCH.json"
        _write(target, [_entry("fused", 1.0)])
        assert compare_latest_entries(target) == 0
        assert "1 entry" in log_output.getvalue()

    def test_two_entries_compare(self, tmp_path, log_output):
        target = tmp_path / "BENCH.json"
        _write(target, [_entry("fused", 2.0), _entry("fused", 1.0)])
        assert compare_latest_entries(target) == 0
        assert "2.00x faster" in log_output.getvalue()

    def test_entries_with_retired_backend_fields_compare(
        self, tmp_path, log_output
    ):
        """Entries recorded per kernel backend compare as the last two."""
        target = tmp_path / "BENCH.json"
        _write(
            target,
            [
                _entry("reference", 4.0),
                _entry("fused", 2.0),
                _entry("reference", 1.0),
            ],
        )
        assert compare_latest_entries(target) == 0
        assert "2.00x faster" in log_output.getvalue()

    def test_committed_trajectory_still_reads(self, log_output):
        assert compare_latest_entries(BENCH_HOTPATHS) == 0
        assert "latest:" in log_output.getvalue()

    def test_corrupt_file_is_still_an_error(self, tmp_path, log_output):
        target = tmp_path / "BENCH.json"
        target.write_text("{definitely not json")
        assert compare_latest_entries(target) == 1
        assert "not valid JSON" in log_output.getvalue()


class TestCliSurface:
    def test_compare_on_fresh_clone_exits_zero(self, tmp_path):
        out = tmp_path / "BENCH_hotpaths.json"
        assert bench_main(["--compare", "--out", str(out)]) == 0

    def test_compare_rejects_unknown_backend(self, tmp_path):
        """``--backend`` is gone, so even a once-valid name is rejected."""
        with pytest.raises(SystemExit):
            bench_main(
                ["--compare", "--out", str(tmp_path / "b.json"),
                 "--backend", "fused"]
            )
