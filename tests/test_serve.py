"""The sweep server and its client: the engine as a service.

Two layers under test.  :class:`SweepService` is the transport-free core
(plain dicts in, plain dicts out), so its cache semantics are asserted
directly; on top, a real :class:`ThreadingHTTPServer` on an ephemeral
port exercises the full wire path through :class:`ServiceClient` —
including the headline contract that resubmitting an identical sweep is
answered entirely from the store with JSON-identical results.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
from urllib.parse import urlsplit

import pytest

from repro.api import RunSpec, json_default
from repro.api.client import ClientError, ServiceClient
from repro.serve import (
    MAX_BODY_BYTES,
    RequestTooLargeError,
    ServiceError,
    SweepService,
    make_server,
)
from repro.store import FileRunStore


def as_json(payload) -> str:
    # The same default= hook the HTTP layer uses: service-level payloads may
    # still carry numpy scalars in trace metadata.
    return json.dumps(payload, default=json_default)


@pytest.fixture()
def service(tmp_path) -> SweepService:
    return SweepService(store=FileRunStore(tmp_path / "store"))


@pytest.fixture()
def spec() -> RunSpec:
    return RunSpec(scheme="naive", num_iterations=3, total_samples=256, seed=0)


class TestService:
    def test_run_computes_then_caches(self, service, spec):
        first = service.handle_run({"spec": spec.to_dict()})
        assert first["cached"] is False
        assert first["fingerprint"] == spec.fingerprint()

        second = service.handle_run({"spec": spec.to_dict()})
        assert second["cached"] is True
        assert as_json(second["result"]) == as_json(first["result"])

    def test_run_seedless_is_never_cached(self, service, spec):
        payload = {"spec": spec.replace(seed=None).to_dict()}
        first = service.handle_run(payload)
        second = service.handle_run(payload)
        assert first["fingerprint"] is None
        assert second["cached"] is False
        assert service.store.fingerprints() == ()

    def test_sweep_resubmission_is_pure_hits(self, service, spec):
        payload = {"spec": spec.to_dict(), "axes": {"seed": [0, 1, 2]}}
        first = service.handle_sweep(payload)
        assert (first["hits"], first["misses"]) == (0, 3)

        second = service.handle_sweep(payload)
        assert (second["hits"], second["misses"]) == (3, 0)
        assert as_json(second["results"]) == as_json(first["results"])
        assert second["fingerprints"] == first["fingerprints"]
        assert all(fp is not None for fp in second["fingerprints"])

    def test_result_lookup(self, service, spec):
        run = service.handle_run({"spec": spec.to_dict()})
        found = service.handle_result(run["fingerprint"])
        assert found is not None
        assert as_json(found["result"]) == as_json(run["result"])
        assert service.handle_result("0" * 64) is None

    def test_health_reports_store_stats(self, service, spec):
        service.handle_run({"spec": spec.to_dict()})
        health = service.handle_health()
        assert health["status"] == "ok"
        assert health["store"]["entries"] == 1

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"spec": {"scheme": "no-such-scheme", "seed": 0}},
            {"spec": {"not_a_field": 1}},
        ],
        ids=["none", "list", "no-spec-key", "unknown-scheme", "unknown-field"],
    )
    def test_bad_run_payloads_raise_service_error(self, service, payload):
        with pytest.raises(ServiceError):
            service.handle_run(payload)

    def test_bad_axes_raise_service_error(self, service, spec):
        with pytest.raises(ServiceError, match="axes"):
            service.handle_sweep({"spec": spec.to_dict(), "axes": {"seed": 0}})


@pytest.fixture()
def server(service):
    httpd = make_server(service=service)
    # A short poll interval: shutdown() waits for the serve loop's next
    # poll, which at the 0.5 s default dominates every HTTP test.
    thread = threading.Thread(
        target=functools.partial(httpd.serve_forever, poll_interval=0.01),
        daemon=True,
    )
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


class TestHTTP:
    def test_health(self, server):
        health = server.health()
        assert health["status"] == "ok"

    def test_run_round_trip(self, server, spec):
        first = server.run(spec)
        assert first.cached is False
        assert first.fingerprint == spec.fingerprint()

        second = server.run(spec)
        assert second.cached is True
        assert second.result.to_json() == first.result.to_json()

    def test_sweep_resubmission_is_pure_hits(self, server, spec):
        first = server.sweep(spec, seed=[0, 1, 2])
        assert (first.hits, first.misses, first.uncacheable) == (0, 3, 0)

        second = server.sweep(spec, seed=[0, 1, 2])
        assert (second.hits, second.misses) == (3, 0)
        assert [r.to_json() for r in second.results] == [
            r.to_json() for r in first.results
        ]

    def test_result_endpoint(self, server, spec):
        response = server.run(spec)
        stored = server.result(response.fingerprint)
        assert stored is not None
        assert stored.to_json() == response.result.to_json()
        assert server.result("0" * 64) is None

    def test_bad_spec_maps_to_http_400(self, server, spec):
        bad = spec.to_dict()
        bad["scheme"] = "no-such-scheme"
        with pytest.raises(ClientError, match="HTTP 400"):
            server._request("POST", "/run", {"spec": bad})

    def test_unknown_endpoint_maps_to_http_404(self, server):
        with pytest.raises(ClientError, match="HTTP 404"):
            server._request("GET", "/nope")
        with pytest.raises(ClientError, match="HTTP 404"):
            server._request("POST", "/nope", {"x": 1})

    def test_empty_body_maps_to_http_400(self, server):
        with pytest.raises(ClientError, match="HTTP 400"):
            server._request("POST", "/run", payload=None)


def post_with_length(client: ServiceClient, content_length: str, body: bytes = b""):
    """POST /run with a hand-written Content-Length; (status, JSON reply)."""
    address = urlsplit(client.base_url)
    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=5)
    try:
        connection.putrequest("POST", "/run")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestRequestBody:
    def test_too_large_is_a_named_service_error(self):
        assert issubclass(RequestTooLargeError, ServiceError)
        assert (ServiceError.status, RequestTooLargeError.status) == (400, 413)

    @pytest.mark.parametrize("header", ["abc", "1.5", ""])
    def test_non_integer_content_length_maps_to_http_400(self, server, header):
        status, reply = post_with_length(server, header)
        assert status == 400
        assert "Content-Length" in reply["error"]

    def test_negative_content_length_maps_to_http_400(self, server):
        # Read as rfile.read(-1), this would wait for the client to hang up.
        status, reply = post_with_length(server, "-1", b'{"spec": {}}')
        assert status == 400
        assert "Content-Length" in reply["error"]
        assert server.health()["status"] == "ok"

    def test_body_over_the_cap_maps_to_http_413(self, server):
        # The server refuses before reading, so no body needs to be sent.
        status, reply = post_with_length(server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in reply["error"]
        assert server.health()["status"] == "ok"

    def test_body_within_the_cap_is_read(self, server, spec):
        body = json.dumps({"spec": spec.to_dict()}).encode()
        status, reply = post_with_length(server, str(len(body) + 10), body + b" " * 10)
        assert status == 200
        assert reply["fingerprint"] == spec.fingerprint()
