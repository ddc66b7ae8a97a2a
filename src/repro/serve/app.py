"""The HTTP surface: stdlib routes over :class:`CostService`.

``start_server`` binds a :class:`http.server.ThreadingHTTPServer` on a
daemon thread (the :func:`repro.obs.start_metrics_endpoint` idiom) and
returns a :class:`ServerHandle`. Routes:

* ``POST /evaluate`` / ``/sweep`` / ``/pareto`` / ``/sensitivity`` /
  ``/optimal_sd`` — one per public :class:`repro.api.Scenario` method,
  parsing the matching request dataclass from
  :mod:`repro.serve.schemas`;
* ``GET /healthz`` — :func:`repro.obs.health_payload` liveness JSON;
* ``GET /metrics`` — the Prometheus registry, bridged live with both
  engine-side and serve-side (cache/batcher/rate-limiter) state.

The error contract maps the :mod:`repro.errors` taxonomy onto status
codes — the body is always an :class:`ErrorResponse` whose ``code`` is
the exception class name:

===========================================  ======
condition                                    status
===========================================  ======
malformed JSON / unknown field / bad type    400
bad ``Content-Length`` / non-UTF-8 body      400
unknown route                                404
request body over 1 MiB                      413
evaluation failure under RAISE               422
rate limit exceeded (``Retry-After`` set)    429
execution failure (``ExecutionError``)       503
===========================================  ======

A 503 means the service could not run the evaluation: the
micro-batcher is closed or its worker died, or the engine pool's
circuit breaker is open under RAISE.

MASK/COLLECT failures are *not* errors: they return 200 with a
``diagnostics`` array (see :mod:`repro.serve.service`).

Every evaluation request runs inside a ``serve.<route>`` span — when
tracing is enabled, span durations feed the p50/p90/p99 sketches that
``/metrics`` renders as ``repro_span_duration_seconds`` — and counts
into the gated ``serve_requests_total{route,status}`` counter.
"""

from __future__ import annotations

import json
import threading

from ..errors import DomainError, ExecutionError, ReproError
from ..obs import metrics as obs_metrics
from ..obs import telemetry as obs_telemetry
from ..obs.exposition import health_payload, render_prometheus
from ..obs.trace import span as obs_span
from .ratelimit import TokenBucket
from .schemas import (
    SCENARIO_ROUTES,
    ErrorResponse,
    EvaluateRequest,
    OptimalSdRequest,
    ParetoRequest,
    SensitivityRequest,
    SweepRequest,
)
from .service import CostService

__all__ = ["ServerHandle", "start_server"]

#: Route name → request dataclass, derived from the same literal the
#: API006 lint rule reads, so the HTTP surface cannot drift from the
#: facade without failing the build.
_REQUEST_TYPES = {
    "evaluate": EvaluateRequest,
    "sweep": SweepRequest,
    "pareto": ParetoRequest,
    "sensitivity": SensitivityRequest,
    "optimal_sd": OptimalSdRequest,
}
assert set(_REQUEST_TYPES) == set(SCENARIO_ROUTES)

#: Cap on accepted request bodies (1 MiB) — a batch of thousands of
#: scenarios fits; anything larger is a client error, not a job.
_MAX_BODY_BYTES = 1 << 20


class ServerHandle:
    """Handle on a running serve instance (close it when done)."""

    def __init__(self, server, thread: threading.Thread,
                 service: CostService, limiter: "TokenBucket | None"):
        self._server = server
        self._thread = thread
        self.service = service
        self.limiter = limiter

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` auto-assignment)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the server (``http://host:port``)."""
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        """Stop serving, release the port, stop the batcher (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _error_body(exc: BaseException, retry_after_s=None) -> ErrorResponse:
    """The wire form of a failure: taxonomy class name + message."""
    return ErrorResponse(code=type(exc).__name__, message=str(exc),
                         retry_after_s=retry_after_s)


def _decode_body(body: bytes) -> str:
    """A request body as text; non-UTF-8 bytes are a client error."""
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"request body is not valid UTF-8: {exc}") from exc


def _bridge_serve_metrics(registry, service: CostService,
                          limiter: "TokenBucket | None"):
    """Publish serve-side state into the registry at scrape time.

    The rate limiter bridges here (``serve_ratelimit_lifetime_total{
    event=granted|throttled}`` by delta, plus a ``serve_ratelimit_tokens``
    gauge); cache and batcher bridging live on the service.
    """
    service.bridge_metrics(registry)
    if limiter is not None:
        stats = limiter.stats()
        for event, lifetime in (("granted", stats["granted"]),
                                ("throttled", stats["throttled"])):
            counter = registry.counter("serve_ratelimit_lifetime_total",
                                       {"event": event})
            delta = lifetime - counter.value
            if delta > 0:
                counter.inc(delta)
        registry.gauge("serve_ratelimit_tokens").set(stats["tokens"])
    return registry


def start_server(host: str = "127.0.0.1", port: int = 0, *,
                 service: "CostService | None" = None,
                 registry=None,
                 rate: "float | None" = None, burst: int = 16,
                 cache_entries: int = 256, batch_max: int = 64,
                 batch_wait_s: float = 0.002,
                 batching: bool = True) -> ServerHandle:
    """Serve the cost model over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`ServerHandle.port`. ``rate`` (requests/second, ``burst``
    capacity) enables token-bucket limiting of the POST routes;
    ``None`` disables it. ``/healthz`` and ``/metrics`` are never rate
    limited, so probes and scrapers keep working under load. Pass an
    existing ``service`` to share its cache between servers; otherwise
    one is built from the ``cache_entries``/``batch_*`` knobs and owned
    (closed) by the handle.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    svc = service if service is not None else CostService(
        cache_entries=cache_entries, batch_max=batch_max,
        batch_wait_s=batch_wait_s, batching=batching)
    reg = registry if registry is not None else obs_metrics.get_registry()
    limiter = TokenBucket(rate, burst) if rate is not None else None

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path == "/metrics":
                obs_telemetry.bridge_engine_metrics(reg)
                _bridge_serve_metrics(reg, svc, limiter)
                self._reply(200, render_prometheus(reg).encode("utf-8"),
                            "text/plain; version=0.0.4; charset=utf-8")
            elif self.path == "/healthz":
                body = (json.dumps(health_payload(), sort_keys=True)
                        + "\n").encode("utf-8")
                self._reply(200, body, "application/json")
            else:
                self._reply_error(404, _error_body(
                    ExecutionError(f"no such route: GET {self.path}")))

        def do_POST(self):  # noqa: N802 - http.server API
            route = self.path.lstrip("/")
            if route not in _REQUEST_TYPES:
                self._reply_error(404, _error_body(
                    ExecutionError(f"no such route: POST {self.path}")))
                return
            if limiter is not None:
                wait_s = limiter.try_acquire()
                if wait_s > 0.0:
                    exc = ExecutionError(
                        "rate limit exceeded; retry after "
                        f"{wait_s:.3f}s")
                    self._reply_error(
                        429, _error_body(exc, retry_after_s=wait_s),
                        retry_after_s=wait_s)
                    self._count(route, 429)
                    return
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                self._reply_error(400, _error_body(DomainError(
                    f"invalid Content-Length header {header!r}")))
                self._count(route, 400)
                return
            if length > _MAX_BODY_BYTES:
                self._discard_body(length)
                self._reply_error(413, _error_body(ExecutionError(
                    f"request body too large ({length} bytes; "
                    f"limit {_MAX_BODY_BYTES})")))
                self._count(route, 413)
                return
            try:
                request = _REQUEST_TYPES[route].from_json(
                    _decode_body(self.rfile.read(length)))
            except ReproError as exc:
                self._reply_error(400, _error_body(exc))
                self._count(route, 400)
                return
            try:
                with obs_span(f"serve.{route}"):
                    response = getattr(svc, route)(request)
            except ExecutionError as exc:
                self._reply_error(503, _error_body(exc))
                self._count(route, 503)
                return
            except ReproError as exc:
                self._reply_error(422, _error_body(exc))
                self._count(route, 422)
                return
            body = (response.to_json() + "\n").encode("utf-8")
            self._reply(200, body, "application/json")
            self._count(route, 200)

        def _discard_body(self, length: int) -> None:
            # Drain a rejected body in bounded chunks, so the client
            # reads the error reply instead of a reset connection.
            while length > 0:
                chunk = self.rfile.read(min(length, 1 << 16))
                if not chunk:
                    return
                length -= len(chunk)

        def _reply(self, status: int, body: bytes, content_type: str,
                   extra_headers=()) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in extra_headers:
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _reply_error(self, status: int, error: ErrorResponse,
                         retry_after_s: "float | None" = None) -> None:
            headers = []
            if retry_after_s is not None:
                import math
                headers.append(("Retry-After",
                                str(max(1, math.ceil(retry_after_s)))))
            self._reply(status, (error.to_json() + "\n").encode("utf-8"),
                        "application/json", extra_headers=headers)

        @staticmethod
        def _count(route: str, status: int) -> None:
            obs_metrics.inc("serve_requests_total",
                            labels={"route": route, "status": str(status)})

        def log_message(self, format, *args):  # noqa: A002 - http.server API
            pass  # request logging goes through metrics, not stderr

    class _Server(ThreadingHTTPServer):
        daemon_threads = True
        # A coalescing server exists to absorb concurrent bursts; the
        # http.server default backlog of 5 resets connections under one.
        request_queue_size = 128

    server = _Server((host, port), _Handler)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return ServerHandle(server, thread, svc, limiter)
