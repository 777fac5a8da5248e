"""Metric naming: the manifest and the Prometheus validity rules.

One module owns what a metric may be called. Three consumers share it:

* :mod:`repro.obs.metrics` validates names and label keys when an
  instrument is first created, so an invalid name fails at the
  registration site instead of surfacing as a malformed scrape later;
* :mod:`repro.obs.export` uses the same rules (and the shared
  label-value escaping) when rendering the text exposition format;
* the ``metric-names`` rule of :mod:`repro.qa` checks statically that
  every literal metric name in the source tree is valid **and** listed
  in :data:`KNOWN_METRICS` — the manifest below is the single place a
  new metric gets declared.

The name/label grammars are Prometheus's own (data model spec):
``[a-zA-Z_:][a-zA-Z0-9_:]*`` for metric names, ``[a-zA-Z_][a-zA-Z0-9_]*``
for label names, with ``__``-prefixed labels reserved for internal use.
"""

from __future__ import annotations

import re
from typing import FrozenSet

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The data-plane telemetry family: ``telemetry_<kind>_<metric>``, where
#: ``<kind>`` is a component family of :mod:`repro.obs.telemetry`. The
#: family is open-ended by metric (each sampled quantity mints a name at
#: runtime from its series key), so membership is grammatical rather than
#: enumerated — :func:`is_known_metric` accepts the whole family.
TELEMETRY_METRIC_RE = re.compile(
    r"^telemetry_(link|switch|controller|app|host)_[a-z][a-z0-9_]*$"
)

#: The streaming-service family: ``service_*`` — ingest volume and rate,
#: queue depth, drop accounting, tenant population, window/merge
#: outcomes, report latency, checkpoint age (:mod:`repro.service`).
#: Grammatical like the telemetry family: the daemon mints per-tenant
#: instruments (the tenant rides in a label, never in the name) without
#: a manifest edit per instrument.
SERVICE_METRIC_RE = re.compile(r"^service_[a-z][a-z0-9_]*$")

#: Every metric the reproduction emits, by subsystem. The ``metric-names``
#: lint rule fails the build when a source file registers a name missing
#: here — add the name (keep the subsystem grouping) in the same change
#: that introduces the instrument.
KNOWN_METRICS: FrozenSet[str] = frozenset(
    {
        # netsim engine
        "sim_events_total",
        "sim_queue_depth",
        "sim_callback_seconds",
        # openflow controller + flow tables
        "controller_messages_total",
        "controller_unroutable_total",
        "controller_dead_misses_total",
        "controller_response_seconds",
        "controller_load_factor",
        "flowtable_lookups_total",
        "flowtable_misses_total",
        "flowtable_installs_total",
        "flowtable_expired_total",
        "flowtable_entries",
        # capture/log summaries
        "log_messages_total",
        "log_messages",
        "log_span_seconds",
        # FlowDiff pipeline
        "flowdiff_models_total",
        "flowdiff_diffs_total",
        "flowdiff_changes_total",
        # sliding monitor + alerting
        "monitor_window_seconds",
        "monitor_windows_total",
        "monitor_unhealthy_windows_total",
        "monitor_last_window_healthy",
        "monitor_healthy_streak",
        "alerts_total",
        "alerts_last_fired_timestamp",
    }
)

#: Label keys the manifest blesses. Kept small on purpose: a label is a
#: cardinality commitment, so new keys are added here deliberately.
#: ``component`` and ``stat`` belong to the telemetry family: the sampled
#: component's identity (dpid, ``a--b`` edge, app name) and which window
#: statistic a gauge carries (``last``/``mean``/``p95``/``min``/``max``).
#: ``tenant`` belongs to the service family: one monitored environment of
#: the streaming daemon (cardinality = the handful of environments one
#: process watches, fixed at startup).
KNOWN_LABELS: FrozenSet[str] = frozenset(
    {
        "kind",
        "role",
        "status",
        "reason",
        "rule",
        "severity",
        "component",
        "stat",
        "tenant",
    }
)


def is_valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal Prometheus metric name."""
    return bool(METRIC_NAME_RE.match(name))


def is_known_metric(name: str) -> bool:
    """Whether ``name`` is declared: listed in the manifest, or a member
    of a grammatical family (``telemetry_*``, ``service_*``)."""
    return (
        name in KNOWN_METRICS
        or bool(TELEMETRY_METRIC_RE.match(name))
        or bool(SERVICE_METRIC_RE.match(name))
    )


def is_valid_label_name(name: str) -> bool:
    """Whether ``name`` is a legal, non-reserved Prometheus label name."""
    return bool(LABEL_NAME_RE.match(name)) and not name.startswith("__")


def validate_metric_name(name: str) -> str:
    """Return ``name``; raise ``ValueError`` when it is not a legal name.

    Called at instrument-creation time by
    :class:`~repro.obs.metrics.MetricsRegistry` — once per instrument,
    never on the observation hot path.
    """
    if not is_valid_metric_name(name):
        raise ValueError(
            f"invalid metric name {name!r}: must match "
            f"{METRIC_NAME_RE.pattern}"
        )
    return name


def validate_label_name(name: str) -> str:
    """Return ``name``; raise ``ValueError`` for an illegal label key."""
    if not is_valid_label_name(name):
        raise ValueError(
            f"invalid metric label name {name!r}: must match "
            f"{LABEL_NAME_RE.pattern} and not start with '__'"
        )
    return name


def escape_label_value(value: object) -> str:
    """Escape a label value for the Prometheus text exposition format.

    Backslash first (so the other escapes stay unambiguous), then quote
    and newline. Injective: two distinct values never escape to the same
    rendering, so escaped labels cannot collide.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
