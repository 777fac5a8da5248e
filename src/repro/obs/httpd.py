"""A read-only stdlib HTTP endpoint over the observability surfaces.

The first concrete step toward the roadmap's always-on streaming service:
a tiny operational endpoint an operator (or a scrape loop) can point a
browser at while an experiment runs. Four routes, all read-only:

* ``/healthz``    — liveness plus a one-look summary (series, alerts);
* ``/metrics``    — Prometheus text exposition of the metrics registry
  and the telemetry plane, through the normal export grammar;
* ``/telemetry``  — the plane's series with their windows, as JSON;
* ``/alerts``     — every fired alert, as JSON.

``GET`` and ``HEAD`` are both served — ``HEAD`` returns the same status
and headers (including the exact ``Content-Length``) with no body, so
probes and load balancers can poll cheaply. Any mutating verb is
answered ``405`` with an ``Allow: GET, HEAD`` header, and nothing in the
handler mutates the observed state. A page that raises is answered
``500`` with the error as JSON (and logged) instead of a reset
connection. Built on
:class:`http.server.ThreadingHTTPServer` only — no new dependencies —
and binds an ephemeral port by default so tests and parallel runs never
collide.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.alerts import AlertEngine
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    NOOP_TELEMETRY,
    TelemetryPlane,
    iter_telemetry_events,
    telemetry_registry,
)

logger = logging.getLogger(__name__)

Query = Dict[str, List[str]]


class ObsState:
    """What the endpoint exposes: registry, telemetry plane and alert
    engine.

    A thin aggregate so the server reads one object; every field is
    optional and read at request time, so a live simulation's plane keeps
    streaming into the same pages an operator is refreshing.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        telemetry: TelemetryPlane = NOOP_TELEMETRY,
        engine: Optional[AlertEngine] = None,
    ) -> None:
        self.registry = registry
        self.telemetry = telemetry
        self.engine = engine
        #: Every JSON page: path → callable taking the parsed query and
        #: returning ``(status, json_payload)``. Subsystems (the
        #: streaming service) add pages here without subclassing the
        #: handler; only ``/metrics`` (text) is routed outside the table.
        #: Registered by subscript assignment — the form flowlint's call
        #: graph reads as an HTTP-thread entrypoint.
        self.routes: Dict[str, Callable[[Query], Tuple[int, Any]]] = {}
        self.routes["/healthz"] = self._route_health
        self.routes["/telemetry"] = self._route_telemetry
        self.routes["/alerts"] = self._route_alerts

    def health(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"status": "ok"}
        if self.telemetry is not NOOP_TELEMETRY:
            payload["telemetry"] = self.telemetry.summary()
        if self.engine is not None:
            payload["alerts"] = len(self.engine.alerts)
            worst = self.engine.worst_severity()
            payload["worst_severity"] = str(worst) if worst is not None else None
        return payload

    def prometheus(self) -> str:
        chunks: List[str] = []
        if self.registry is not None:
            chunks.append(render_prometheus(self.registry))
        if self.telemetry is not NOOP_TELEMETRY:
            chunks.append(render_prometheus(telemetry_registry(self.telemetry)))
        return "\n".join(c for c in chunks if c) or "\n"

    def telemetry_json(self) -> List[Dict[str, Any]]:
        return list(iter_telemetry_events(self.telemetry))

    def alerts_json(self) -> List[Dict[str, Any]]:
        if self.engine is None:
            return []
        return [a.to_dict() for a in self.engine.alerts]

    # -- route-table adapters (late-bound, so subclass overrides apply) --

    def _route_health(self, query: Query) -> Tuple[int, Any]:
        return 200, self.health()

    def _route_telemetry(self, query: Query) -> Tuple[int, Any]:
        return 200, self.telemetry_json()

    def _route_alerts(self, query: Query) -> Tuple[int, Any]:
        return 200, self.alerts_json()


class _Handler(BaseHTTPRequestHandler):
    """Route the read-only pages; refuse everything else."""

    server_version = "repro-obs/1"
    #: Injected by :class:`ObsHTTPServer` at server construction.
    state: ObsState

    def _respond(self, include_body: bool) -> None:
        """Shared GET/HEAD routing; HEAD sends headers only."""
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/healthz"
        content_type = "application/json"
        try:
            if path == "/metrics":
                code, body = 200, self.state.prometheus().encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                route = self.state.routes.get(path)
                if route is None:
                    code, payload = 404, {"error": f"unknown path {path!r}"}
                else:
                    code, payload = route(parse_qs(parts.query))
                body = json.dumps(payload, indent=2).encode("utf-8")
        except Exception as exc:
            # The endpoint must outlive a broken page: nothing has been
            # sent yet, so the failure becomes a well-formed 500.
            logger.exception("ops endpoint page %s failed", path)
            code, content_type = 500, "application/json"
            body = json.dumps({"error": repr(exc)}).encode("utf-8")
        self._raw(code, body, content_type, include_body)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        self._respond(include_body=True)

    def do_HEAD(self) -> None:  # noqa: N802 - http.server naming convention
        """Same status and headers as GET — Content-Length included —
        with no body, so liveness probes don't pay for payloads."""
        self._respond(include_body=False)

    def _refuse_write(self) -> None:
        body = json.dumps({"error": "read-only endpoint"}).encode("utf-8")
        self.send_response(405)
        self.send_header("Allow", "GET, HEAD")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # Every mutating verb is refused identically.
    do_POST = _refuse_write
    do_PUT = _refuse_write
    do_DELETE = _refuse_write
    do_PATCH = _refuse_write

    def _raw(
        self, code: int, body: bytes, content_type: str, include_body: bool = True
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if include_body:
            self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter (the CLI reports the URL)."""


class ObsHTTPServer:
    """The ops endpoint: a daemon-threaded ``ThreadingHTTPServer``.

    Usage::

        server = ObsHTTPServer(ObsState(registry, plane, engine))
        host, port = server.start()
        ... # GET http://host:port/healthz
        server.stop()

    ``port=0`` (the default) binds an ephemeral port, reported by
    :meth:`start` — safe under parallel tests and repeated CLI runs.
    """

    def __init__(
        self, state: ObsState, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        handler = type("_BoundHandler", (_Handler,), {"state": state})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def url(self, path: str = "/") -> str:
        host, port = self.address
        return f"http://{host}:{port}{path}"

    def start(self) -> Tuple[str, int]:
        """Serve in a daemon thread; returns the bound (host, port)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-httpd", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObsHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
