"""``repro serve``: the engine as a service, backed by the run store.

A deliberately small stdlib-:mod:`http.server` front-end over
:class:`~repro.api.engine.Engine` + :class:`~repro.store.FileRunStore` — no
web framework, no new dependencies, the same code path as the library:

``POST /run``
    Body ``{"spec": <RunSpec dict>}``.  Answers from the store when the
    spec's fingerprint is present, otherwise computes through the normal
    engine path and writes back.  Response: ``{"fingerprint", "cached",
    "result"}``.

``POST /sweep``
    Body ``{"spec": <RunSpec dict>, "axes": {field: [values...]}}``.
    Runs ``Engine.sweep`` through a store-bound ``cached`` executor, so
    resubmitting an identical sweep recomputes nothing.  Response:
    ``{"fingerprints", "hits", "misses", "uncacheable", "results"}``.

``GET /result/<fingerprint>``
    The stored result for a fingerprint (404 on a miss).

``GET /health``
    Liveness plus store statistics.

Request bodies are capped at :data:`MAX_BODY_BYTES` (413 beyond it); a
missing, non-integer or negative ``Content-Length`` is a 400.  Requests and
responses are JSON; results use the exact
:meth:`RunResult.to_dict <repro.api.result.RunResult.to_dict>` layout, so
``RunResult.from_dict`` on the client side round-trips them
(:mod:`repro.api.client` wraps exactly that).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .api.engine import Engine, EngineError
from .api.executors import CachedExecutor
from .api.result import json_default
from .api.spec import RunSpec, SpecError
from .store import FileRunStore

__all__ = [
    "MAX_BODY_BYTES",
    "RequestTooLargeError",
    "ServiceError",
    "SweepService",
    "make_server",
    "serve",
]

#: Largest request body the server reads.  A spec plus its sweep axes is a
#: few kilobytes; anything near this is a client error, not a workload.
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceError(ValueError):
    """A client-visible request error (maps to HTTP 400)."""

    status = 400


class RequestTooLargeError(ServiceError):
    """A request body longer than :data:`MAX_BODY_BYTES` (maps to HTTP 413)."""

    status = 413


class SweepService:
    """The transport-free core of the sweep server.

    Every handler takes and returns plain JSON-ready data, so the HTTP
    layer below — and tests — stay one-line thin.  Compute goes through a
    store-bound ``cached`` executor: the service *is* the resumable-sweep
    path, exposed over a socket.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        store: FileRunStore | None = None,
        store_path: str | None = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.store = store if store is not None else FileRunStore(store_path)

    @staticmethod
    def _parse_spec(payload: Any) -> RunSpec:
        if not isinstance(payload, dict) or "spec" not in payload:
            raise ServiceError('request body must be a JSON object with a "spec" key')
        try:
            return RunSpec.from_dict(payload["spec"])
        except (SpecError, TypeError, KeyError, ValueError) as exc:
            raise ServiceError(f"invalid spec: {exc}") from exc

    def handle_run(self, payload: Any) -> dict[str, Any]:
        """One spec: store hit if fingerprinted and present, else compute."""
        spec = self._parse_spec(payload)
        fingerprint = spec.fingerprint() if spec.seed is not None else None
        if fingerprint is not None:
            stored = self.store.get(fingerprint)
            if stored is not None:
                return {
                    "fingerprint": fingerprint,
                    "cached": True,
                    "result": stored.to_dict(),
                }
        try:
            result = self.engine.run(spec)
        except (EngineError, SpecError) as exc:
            raise ServiceError(str(exc)) from exc
        if fingerprint is not None:
            self.store.put(fingerprint, result)
        return {
            "fingerprint": fingerprint,
            "cached": False,
            "result": result.to_dict(),
        }

    def handle_sweep(self, payload: Any) -> dict[str, Any]:
        """A whole sweep through the store-bound ``cached`` executor."""
        spec = self._parse_spec(payload)
        axes = payload.get("axes", {})
        if not isinstance(axes, dict) or not all(
            isinstance(name, str) and isinstance(values, list)
            for name, values in axes.items()
        ):
            raise ServiceError('"axes" must map RunSpec field names to value lists')
        executor = CachedExecutor(store=self.store)
        try:
            results = self.engine.sweep(spec, executor=executor, **axes)
        except (EngineError, SpecError, TypeError) as exc:
            raise ServiceError(str(exc)) from exc
        return {
            "fingerprints": [
                result.spec.fingerprint() if result.spec.seed is not None else None
                for result in results
            ],
            "hits": executor.hits,
            "misses": executor.misses,
            "uncacheable": executor.uncacheable,
            "results": [result.to_dict() for result in results],
        }

    def handle_result(self, fingerprint: str) -> dict[str, Any] | None:
        """The stored result for ``fingerprint``; ``None`` -> HTTP 404."""
        stored = self.store.get(fingerprint)
        if stored is None:
            return None
        return {
            "fingerprint": fingerprint,
            "cached": True,
            "result": stored.to_dict(),
        }

    def handle_health(self) -> dict[str, Any]:
        stats = getattr(self.store, "stats", None)
        return {
            "status": "ok",
            "store": stats() if callable(stats) else {},
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`SweepService` methods."""

    service: SweepService  # set by make_server on the per-server subclass
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def _reply(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, default=json_default).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so this connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                raise ServiceError(f"invalid Content-Length {header!r}")
            raise RequestTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; the CLI reports the bound address instead

    # -- routes ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/run":
                self._reply(200, self.service.handle_run(self._read_json()))
            elif self.path == "/sweep":
                self._reply(200, self.service.handle_sweep(self._read_json()))
            else:
                self._reply(404, {"error": f"unknown endpoint {self.path!r}"})
        except ServiceError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - last-resort 500, never a hang
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/health":
                self._reply(200, self.service.handle_health())
            elif self.path.startswith("/result/"):
                fingerprint = self.path.removeprefix("/result/")
                found = self.service.handle_result(fingerprint)
                if found is None:
                    self._reply(
                        404, {"error": f"no stored result for {fingerprint!r}"}
                    )
                else:
                    self._reply(200, found)
            else:
                self._reply(404, {"error": f"unknown endpoint {self.path!r}"})
        except Exception as exc:  # noqa: BLE001 - last-resort 500, never a hang
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: SweepService | None = None,
    store_path: str | None = None,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server (``port=0`` picks a free one).

    The bound port is ``server.server_address[1]`` — tests and the CLI
    read it back rather than guessing.
    """
    bound_service = (
        service if service is not None else SweepService(store_path=store_path)
    )

    handler = type("BoundHandler", (_Handler,), {"service": bound_service})
    return ThreadingHTTPServer((host, port), handler)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    store_path: str | None = None,
) -> None:
    """Run the sweep server until interrupted (the ``repro serve`` entry)."""
    server = make_server(host=host, port=port, store_path=store_path)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
