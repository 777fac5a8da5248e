"""``repro.obs`` — observability for the reproduction itself.

FlowDiff diagnoses a data center by passively watching its control plane;
this package applies the same discipline to our own stack. It is
dependency-free and designed so that the *default* (uninstrumented) path
costs nothing measurable:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms in
  a :class:`MetricsRegistry`; :data:`NOOP_REGISTRY` is the universal
  do-nothing default.
* :mod:`repro.obs.tracing` — nestable wall-clock/sim-clock spans;
  :data:`NOOP_TRACER` likewise.
* :mod:`repro.obs.export` — JSONL event streams and Prometheus text
  exposition of a registry (plus round-trip readers).
* :mod:`repro.obs.stats` — one-pass controller-log summaries (message
  mix, rates, top talkers) behind ``repro stats``.
* :mod:`repro.obs.profile` — span trees rendered as the ``--profile``
  phase table.
* :mod:`repro.obs.flightrec` — the per-flow causal flight recorder:
  reconstructs PacketIn -> FlowMod -> ... -> FlowRemoved timelines from a
  capture via correlation ids (heuristic 5-tuple grouping as fallback).
* :mod:`repro.obs.alerts` — streaming alert rules (threshold, EWMA drift,
  consecutive unhealthy windows, problem class) and the deduping
  :class:`AlertEngine` behind ``repro monitor``.
* :mod:`repro.obs.telemetry` — the data-plane telemetry plane: bounded
  per-component time series (link utilization/drops, table occupancy,
  controller latency, RPC latency) with ring-buffered window rollups;
  :data:`NOOP_TELEMETRY` is the do-nothing default.
* :mod:`repro.obs.heatmap` — self-contained HTML topology heatmaps of a
  telemetry plane (links by utilization/drops, switches by table
  pressure).
* :mod:`repro.obs.httpd` — the read-only ops HTTP endpoint
  (``/healthz``, ``/metrics``, ``/telemetry``, ``/alerts``).

Typical instrumented run::

    from repro.obs import MetricsRegistry, Tracer

    metrics = MetricsRegistry()
    tracer = Tracer()
    fd = FlowDiff(config, metrics=metrics, tracer=tracer)
    report = fd.diff(fd.model(l1), fd.model(l2))
    print(render_phase_table(tracer))
    write_jsonl("telemetry.jsonl", metrics, tracer)
"""

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    EwmaDriftRule,
    ProblemClassRule,
    Severity,
    ThresholdRule,
    UnhealthyWindowsRule,
    default_rules,
    metric_matches,
    read_alerts_jsonl,
    telemetry_rules,
    write_alerts_jsonl,
)
from repro.obs.export import (
    iter_metric_events,
    iter_span_events,
    metrics_from_events,
    read_jsonl,
    render_prometheus,
    write_jsonl,
)
from repro.obs.flightrec import (
    FlightRecorder,
    FlowTimeline,
    TimelineEvent,
    reconstruct,
)
from repro.obs.heatmap import heatmap_to_html, save_heatmap, topology_heatmap_svg
from repro.obs.httpd import ObsHTTPServer, ObsState
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NOOP_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopRegistry,
)
from repro.obs.profile import phase_rows, render_phase_table
from repro.obs.telemetry import (
    NOOP_TELEMETRY,
    ComponentSeries,
    NoopTelemetry,
    TelemetryPlane,
    WindowStat,
    iter_telemetry_events,
    plane_from_events,
    render_tables,
    telemetry_registry,
)
from repro.obs.stats import (
    LogSummary,
    record_log_metrics,
    render_summary,
    summarize_log,
)
from repro.obs.tracing import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "NOOP_REGISTRY",
    "NOOP_TELEMETRY",
    "NOOP_TRACER",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "ComponentSeries",
    "Counter",
    "EwmaDriftRule",
    "FlightRecorder",
    "FlowTimeline",
    "Gauge",
    "Histogram",
    "LogSummary",
    "MetricsRegistry",
    "NoopRegistry",
    "NoopTelemetry",
    "NoopTracer",
    "ObsHTTPServer",
    "ObsState",
    "ProblemClassRule",
    "Severity",
    "Span",
    "TelemetryPlane",
    "ThresholdRule",
    "TimelineEvent",
    "Tracer",
    "UnhealthyWindowsRule",
    "WindowStat",
    "default_rules",
    "heatmap_to_html",
    "iter_metric_events",
    "iter_span_events",
    "iter_telemetry_events",
    "metric_matches",
    "metrics_from_events",
    "phase_rows",
    "plane_from_events",
    "read_alerts_jsonl",
    "read_jsonl",
    "reconstruct",
    "render_phase_table",
    "render_prometheus",
    "render_summary",
    "render_tables",
    "record_log_metrics",
    "save_heatmap",
    "summarize_log",
    "telemetry_registry",
    "telemetry_rules",
    "topology_heatmap_svg",
    "write_alerts_jsonl",
    "write_jsonl",
]
