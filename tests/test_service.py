"""Tests for the HTTP monitoring service (stdlib server, real sockets)."""

import json
import os
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import (
    BatteryConfig,
    CommunityConfig,
    DetectionConfig,
    GameConfig,
    SolarConfig,
    TimeGrid,
)
from repro.service.app import (
    DetectionService,
    ServiceError,
    create_server,
    serve_until_signalled,
)
from repro.simulation.cache import GameSolutionCache
from repro.stream.checkpoint import resume_engine
from repro.stream.events import event_to_dict
from repro.stream.pipeline import build_synthetic_engine


@pytest.fixture(scope="module")
def tiny_config() -> CommunityConfig:
    return CommunityConfig(
        n_customers=8,
        appliances_per_customer=(2, 3),
        pv_adoption=0.5,
        time=TimeGrid(slots_per_day=24, n_days=1),
        battery=BatteryConfig(
            capacity_kwh=1.0, initial_kwh=0.0, max_charge_kw=0.5, max_discharge_kw=0.5
        ),
        solar=SolarConfig(peak_kw=0.7),
        game=GameConfig(
            max_rounds=2,
            inner_iterations=1,
            ce_samples=8,
            ce_elites=2,
            ce_iterations=2,
            convergence_tol=0.1,
        ),
        detection=DetectionConfig(n_monitored_meters=4, hack_probability=0.15),
        seed=11,
    )


@pytest.fixture()
def service_url(tiny_config, tmp_path):
    """A live server on an ephemeral port, torn down after the test."""
    engine = build_synthetic_engine(
        tiny_config, n_days=4, attack_days=(1, 3), cache=GameSolutionCache()
    )
    service = DetectionService(engine, checkpoint_path=tmp_path / "service.json")
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _post(base: str, path: str, body: dict | None = None) -> dict:
    data = json.dumps(body or {}).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, service_url):
        base, _ = service_url
        assert _get(base, "/healthz") == {"ok": True}

    def test_advance_and_status(self, service_url):
        base, _ = service_url
        summary = _post(base, "/advance", {"until_day": 2})
        assert summary["detections"] == 48
        assert not summary["exhausted"]
        status = _get(base, "/status")
        assert status["days_completed"] == 2
        assert status["slots_processed"] == 48
        assert status["events_processed"] == summary["events_pumped"]

    def test_detections_slice(self, service_url):
        base, _ = service_url
        _post(base, "/advance", {"until_day": 1})
        payload = _get(base, "/detections?since=10&limit=5")
        assert payload["total_slots"] == 24
        assert len(payload["detections"]) == 5
        assert payload["truncated"]
        assert payload["detections"][0]["slot"] == 10

    def test_metrics_reports_interval_deltas(self, service_url):
        base, _ = service_url
        _post(base, "/advance", {"max_events": 30})
        first = _get(base, "/metrics")
        assert first["interval"].get("stream.events") == pytest.approx(30.0)
        second = _get(base, "/metrics")
        assert "stream.events" not in second["interval"]
        _post(base, "/advance", {"max_events": 5})
        third = _get(base, "/metrics")
        assert third["interval"].get("stream.events") == pytest.approx(5.0)
        assert third["totals"]["stream.events"] >= 35.0

    def test_push_event_runs_detection(self, service_url, tiny_config):
        base, service = service_url
        source = build_synthetic_engine(
            tiny_config, n_days=1, cache=GameSolutionCache()
        ).source
        update = source.next_event()
        reading = source.next_event()
        assert _post(base, "/events", event_to_dict(update))["accepted"]
        response = _post(base, "/events", event_to_dict(reading))
        assert response["detection"]["slot"] == reading.slot
        assert _get(base, "/status")["slots_processed"] == 1

    def test_checkpoint_endpoint_resumes(self, service_url):
        base, service = service_url
        _post(base, "/advance", {"until_day": 2})
        saved = _post(base, "/checkpoint")
        resumed = resume_engine(saved["checkpoint"], cache=GameSolutionCache())
        _post(base, "/advance", {})  # run the live engine to exhaustion
        resumed.run()
        assert [d.to_dict() for d in resumed.timeline] == [
            d.to_dict() for d in service.engine.timeline
        ]

    def test_bad_event_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/events", {"type": "bogus"})
        assert excinfo.value.code == 400

    def test_reading_before_day_is_400(self, service_url, tiny_config):
        base, _ = service_url
        source = build_synthetic_engine(
            tiny_config, n_days=1, cache=GameSolutionCache()
        ).source
        source.next_event()  # drop the price update
        reading = source.next_event()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/events", event_to_dict(reading))
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/nope")
        assert excinfo.value.code == 404

    def test_bad_query_is_400(self, service_url):
        base, _ = service_url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/detections?since=banana")
        assert excinfo.value.code == 400


class TestServiceDirect:
    def test_checkpoint_without_path_rejected(self, tiny_config):
        engine = build_synthetic_engine(
            tiny_config, n_days=1, cache=GameSolutionCache()
        )
        service = DetectionService(engine)
        with pytest.raises(ServiceError, match="checkpoint path"):
            service.checkpoint()

    def test_advance_validates_bounds(self, tiny_config):
        engine = build_synthetic_engine(
            tiny_config, n_days=1, cache=GameSolutionCache()
        )
        service = DetectionService(engine)
        with pytest.raises(ServiceError, match="max_events"):
            service.advance(max_events=-1)
        with pytest.raises(ServiceError, match="until_day"):
            service.advance(until_day=-2)


class TestConcurrentAdvance:
    """Concurrent ``POST /advance`` requests must serialize on the
    service lock: the pipeline (belief filter, RNG, timeline) is not
    re-entrant, so interleaved pumping would corrupt the run."""

    def test_parallel_posts_serialize_without_losing_events(self, service_url):
        base, service = service_url
        n_threads, per_call = 4, 20
        barrier = threading.Barrier(n_threads)
        results: list[dict] = []
        errors: list[Exception] = []

        def worker() -> None:
            try:
                barrier.wait(timeout=10)
                results.append(_post(base, "/advance", {"max_events": per_call}))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == n_threads

        # Serialized execution: every event was pumped exactly once.
        total = sum(r["events_pumped"] for r in results)
        assert total == n_threads * per_call
        assert service.engine.events_processed == total

        # The timeline is one consistent, strictly ordered run: the same
        # state a single caller pumping the same budget would produce.
        slots = [det.slot for det in service.engine.timeline]
        assert slots == sorted(slots)
        assert len(slots) == len(set(slots))
        assert len(slots) == service.engine.pipeline.n_slots_processed


def test_sigterm_checkpoints_then_stops_serving(tiny_config, tmp_path):
    """The serve loop both servers share: SIGTERM saves a checkpoint of
    the state reached, then the server stops and returns."""
    engine = build_synthetic_engine(
        tiny_config, n_days=4, attack_days=(1, 3), cache=GameSolutionCache()
    )
    path = tmp_path / "service.json"
    service = DetectionService(engine, checkpoint_path=path)
    server = create_server(service, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"

    def drive() -> None:
        try:
            _post(base, "/advance", {"until_day": 1})
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    try:
        serve_until_signalled(server, checkpoint=service.checkpoint, install_signals=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    driver.join(timeout=10)
    assert not driver.is_alive()
    assert engine.pipeline.days_completed == 1
    assert resume_engine(path).events_processed == engine.events_processed
