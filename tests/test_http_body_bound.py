"""Request-body bounds of both HTTP servers (real sockets).

``read_json_body`` checks the declared ``Content-Length`` before reading:
a negative length is a 400 and anything over ``MAX_BODY_BYTES`` a 413,
both answered without touching the body, so a client that never sends
one cannot hang the handler.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
from email.message import Message

import pytest

from repro.core.presets import paper_preset
from repro.fleet.aggregator import FleetAggregator, create_fleet_server
from repro.fleet.engine import build_fleet
from repro.fleet.loadgen import LoadGenerator
from repro.service.app import (
    MAX_BODY_BYTES,
    DetectionService,
    create_server,
    read_json_body,
)
from repro.simulation.cache import GameSolutionCache
from repro.stream.pipeline import build_synthetic_engine


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def fleet_server(fleet_config):
    generator = LoadGenerator(fleet_config, n_communities=3, n_days=1, seed=5)
    fleet = build_fleet(generator.specs(), n_shards=2, cache=GameSolutionCache())
    server = create_fleet_server(FleetAggregator(fleet), port=0)
    thread = _serve(server)
    try:
        yield server.server_address[1], generator
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def service_server(fleet_config):
    engine = build_synthetic_engine(
        fleet_config, n_days=2, attack_days=(1, 1), cache=GameSolutionCache()
    )
    server = create_server(DetectionService(engine), port=0)
    thread = _serve(server)
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _post(port: int, path: str, *, length: int, body: bytes = b"") -> tuple[int, dict]:
    """POST with an explicit ``Content-Length``; the body may be shorter."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(length))
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _server_routes(request):
    if request.param == "fleet":
        port, _ = request.getfixturevalue("fleet_server")
        return port, "/envelope"
    return request.getfixturevalue("service_server"), "/events"


@pytest.fixture(params=["fleet", "service"])
def route(request):
    return _server_routes(request)


class TestBodyBound:
    def test_negative_length_is_400_without_reading(self, route):
        port, path = route
        status, payload = _post(port, path, length=-1)
        assert status == 400
        assert payload["status"] == 400
        assert "negative Content-Length" in payload["error"]

    def test_oversized_length_is_413_without_reading(self, route):
        port, path = route
        status, payload = _post(port, path, length=MAX_BODY_BYTES + 1)
        assert status == 413
        assert payload == {
            "error": payload["error"],
            "code": "body_too_large",
            "status": 413,
        }

    def test_body_at_the_limit_is_read(self, route):
        """Exactly ``MAX_BODY_BYTES`` passes the bound (then fails as JSON
        that is not an object, which proves it was read and parsed)."""
        port, path = route
        body = b"[" + b" " * (MAX_BODY_BYTES - 2) + b"]"
        status, payload = _post(port, path, length=len(body), body=body)
        assert status == 400
        assert payload["error"] == "request body must be a JSON object"

    def test_full_tick_envelope_is_accepted(self, fleet_server):
        port, generator = fleet_server
        envelope = next(generator.envelopes())
        body = json.dumps(envelope).encode("utf-8")
        status, payload = _post(port, "/envelope", length=len(body), body=body)
        assert status == 200
        assert payload["accepted"] == len(envelope["entries"]) == 3


class _Handler:
    """The two attributes ``read_json_body`` uses of a request handler."""

    def __init__(self, body: bytes) -> None:
        self.headers = Message()
        self.headers["Content-Length"] = str(len(body))
        self.rfile = io.BytesIO(body)


def test_largest_real_envelope_fits_the_bound():
    """A full tick of 12 paper-preset communities, the largest body the
    repo's own load generator sends, is read whole."""
    generator = LoadGenerator(paper_preset(), n_communities=12, n_days=1, seed=7)
    largest = max(
        (json.dumps(envelope).encode("utf-8") for envelope in generator.envelopes()),
        key=len,
    )
    assert len(largest) <= MAX_BODY_BYTES
    assert read_json_body(_Handler(largest)) == json.loads(largest)
