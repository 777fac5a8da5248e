"""The service's HTTP surface: diff reports, alerts, traces, health.

:class:`ServiceState` plugs the multi-tenant daemon into the existing
read-only ops endpoint (:mod:`repro.obs.httpd`): the shared ``/metrics``
page exports the tenant-labeled ``service_*`` family through the normal
Prometheus grammar, ``/healthz`` gains a per-tenant summary, and four
service pages ride the endpoint's route table:

* ``/tenants``               — every tenant's phase/progress/health row;
* ``/diff?tenant=X[&n=K]``   — the latest ``K`` window diagnosis reports;
* ``/alerts``               — the newest ``history_limit`` fired alerts
  per tenant, tenant-labeled, stream-time ordered (overrides the
  single-engine page of the base endpoint);
* ``/traces?tenant=X[&corr=N][&flow=S][&limit=K]`` — flight-recorder
  chains reconstructed from the tenant's recent-message ring.

Thread model: the drain worker owns every tenant's state, and handlers
run on HTTP threads. A handler reads four things of the service and no
more: :meth:`~repro.service.daemon.StreamService.views` (each tenant's
published view, taken once per request, so one page never mixes two
moments), ``metrics``, ``errors`` (replaced whole, never mutated) and
``config``. It never reaches a tenant pipeline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.flowdiff import FlowDiffConfig
from repro.obs.httpd import ObsHTTPServer, ObsState, Query
from repro.service.daemon import StreamService
from repro.service.tenant import TenantView


class ServiceState(ObsState):
    """The ops-endpoint state for a running :class:`StreamService`."""

    def __init__(self, service: StreamService) -> None:
        super().__init__(registry=service.metrics)
        self.service = service
        self.routes["/tenants"] = self._route_tenants
        self.routes["/diff"] = self._route_diff
        self.routes["/traces"] = self._route_traces

    # -- overridden base pages ------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness plus per-tenant progress; ``status`` stays ``ok``
        while the daemon serves (per-tenant health is in the rows)."""
        payload = super().health()
        payload["tenants"] = {
            name: view.summary for name, view in self.service.views().items()
        }
        errors = self.service.errors
        if errors:
            payload["ingest_errors"] = errors
        return payload

    def alerts_json(self) -> List[Dict[str, Any]]:
        """Each tenant's newest fired alerts, tenant-labeled, by time."""
        out: List[Dict[str, Any]] = [
            row for view in self.service.views().values() for row in view.alerts
        ]
        out.sort(key=lambda row: row.get("timestamp") or 0.0)
        return out

    # -- service routes --------------------------------------------------

    def _view_for(self, query: Query) -> Tuple[Optional[TenantView], Any]:
        """Resolve ``?tenant=``; a single-tenant service needs no query."""
        views = self.service.views()
        names = query.get("tenant")
        if names:
            view = views.get(names[0])
            if view is None:
                return None, (404, {"error": f"unknown tenant {names[0]!r}"})
            return view, None
        if len(views) == 1:
            return next(iter(views.values())), None
        return None, (
            400,
            {"error": "tenant query required", "tenants": sorted(views)},
        )

    def _route_tenants(self, query: Query) -> Tuple[int, Any]:
        return 200, {
            "tenants": [view.summary for view in self.service.views().values()]
        }

    def _route_diff(self, query: Query) -> Tuple[int, Any]:
        view, error = self._view_for(query)
        if view is None:
            return error
        try:
            n = max(1, int(query.get("n", ["1"])[0]))
        except ValueError:
            return 400, {"error": "n must be an integer"}
        return 200, {
            "tenant": view.summary["tenant"],
            "phase": view.summary["phase"],
            "windows": list(view.history[-n:]),
        }

    def _route_traces(self, query: Query) -> Tuple[int, Any]:
        view, error = self._view_for(query)
        if view is None:
            return error
        # Imported lazily: flight reconstruction is a heavyweight
        # analysis path the ingest loop never touches.
        from repro.obs.flightrec import FlightRecorder
        from repro.openflow.log import ControllerLog

        # Tenants model with the service config (FlowDiff's default when
        # it is None), so the pairing gap is the tenant's.
        config = self.service.config or FlowDiffConfig()
        recorder = FlightRecorder.from_log(
            ControllerLog(view.trace),
            occurrence_gap=config.signature.occurrence_gap,
        )
        # Chains are built as they are read: one for ``corr``, and for a
        # listing the first ``limit`` of however many there are.
        timelines = recorder.timelines
        corr = query.get("corr")
        flow = query.get("flow")
        if corr:
            try:
                corr_id = int(corr[0])
            except ValueError:
                return 400, {"error": "corr must be an integer"}
            timeline = recorder.timeline(corr_id)
            if timeline is None:
                return 404, {"error": f"no chain with corr id {corr_id}"}
            timelines = [timeline]
            if flow and (timeline.flow is None or flow[0] not in str(timeline.flow)):
                timelines = []
        elif flow:
            timelines = recorder.for_flow(flow[0])
        try:
            limit = max(1, int(query.get("limit", ["50"])[0]))
        except ValueError:
            return 400, {"error": "limit must be an integer"}
        return 200, {
            "tenant": view.summary["tenant"],
            "chains": len(timelines),
            "timelines": [t.to_dict() for t in timelines[:limit]],
        }


def create_server(
    service: StreamService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ObsHTTPServer:
    """An ops endpoint bound to ``service`` (start it with ``.start()``)."""
    return ObsHTTPServer(ServiceState(service), host, port)
