"""Metrics export: JSONL event streams and Prometheus text format.

Two render targets, one registry:

* **JSONL** — one self-describing JSON object per line per instrument
  (plus one per trace span), append-friendly and trivially diffable; this
  is what ``--metrics-out`` writes.
* **Prometheus text exposition format** — so a scrape endpoint (or a
  ``textfile`` collector drop) can serve the same registry unchanged.
  Histograms are rendered cumulatively with the conventional
  ``_bucket``/``_sum``/``_count`` triple.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, TextIO, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.names import escape_label_value, validate_metric_name
from repro.obs.tracing import Tracer


def iter_metric_events(registry: MetricsRegistry) -> Iterator[Dict[str, Any]]:
    """Yield one JSON-ready dict per instrument in the registry."""
    for metric in registry:
        event: Dict[str, Any] = {
            "type": metric.kind,
            "name": metric.name,
            "labels": dict(metric.labels),
        }
        if isinstance(metric, (Counter, Gauge)):
            event["value"] = metric.value
        elif isinstance(metric, Histogram):
            event["count"] = metric.count
            event["sum"] = metric.total
            event["buckets"] = [
                {"le": bound, "n": n}
                for bound, n in zip(metric.bounds, metric.counts)
            ]
            event["buckets"].append({"le": "+Inf", "n": metric.counts[-1]})
            if metric.count:
                event["min"] = metric.min
                event["max"] = metric.max
                event["mean"] = metric.mean
        yield event


def iter_span_events(tracer: Tracer) -> Iterator[Dict[str, Any]]:
    """Yield one JSON-ready dict per span (flattened, with depth)."""

    def visit(span, depth: int, path: str) -> Iterator[Dict[str, Any]]:
        full = f"{path}/{span.name}" if path else span.name
        event: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "path": full,
            "depth": depth,
            "duration_s": span.duration,
            "self_duration_s": span.self_duration,
        }
        if span.sim_duration is not None:
            event["sim_duration_s"] = span.sim_duration
        if span.meta:
            event["meta"] = dict(span.meta)
        yield event
        for child in span.children:
            yield from visit(child, depth + 1, full)

    for root in tracer.roots:
        yield from visit(root, 0, "")


def write_jsonl(
    destination: Union[str, TextIO],
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the registry (and optionally a trace) as JSON lines.

    Args:
        destination: a path or an open text file.
        registry: the metrics to dump.
        tracer: when given, span events follow the metric events.
        extra: when given, an initial ``{"type": "meta", ...}`` line.

    Returns:
        The number of lines written.
    """
    events: List[Dict[str, Any]] = []
    if extra:
        events.append({"type": "meta", **extra})
    events.extend(iter_metric_events(registry))
    if tracer is not None:
        events.extend(iter_span_events(tracer))

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
    else:
        for event in events:
            destination.write(json.dumps(event) + "\n")
    return len(events)


def read_jsonl(source: Union[str, TextIO]) -> List[Dict[str, Any]]:
    """Parse a JSONL metrics stream back into event dicts.

    The complement of :func:`write_jsonl`, used by tests and by tooling
    that post-processes ``--metrics-out`` files. Blank lines are skipped.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad metrics JSON on line {lineno}: {exc}") from exc
    return events


def metrics_from_events(events: List[Dict[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry from parsed JSONL events (round-trip helper)."""
    registry = MetricsRegistry()
    for event in events:
        labels = event.get("labels", {})
        kind = event.get("type")
        if kind == "counter":
            registry.counter(event["name"], **labels).value = event["value"]
        elif kind == "gauge":
            registry.gauge(event["name"], **labels).value = event["value"]
        elif kind == "histogram":
            bounds = [b["le"] for b in event["buckets"] if b["le"] != "+Inf"]
            hist = registry.histogram(event["name"], buckets=bounds, **labels)
            hist.counts = [b["n"] for b in event["buckets"]]
            hist.count = event["count"]
            hist.total = event["sum"]
            hist.min = event.get("min", float("inf"))
            hist.max = event.get("max", float("-inf"))
    return registry


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------


def _format_value(value: float) -> str:
    value = float(value)
    if value != value:  # NaN never equals itself
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(labels, extra: str = "") -> str:
    # Label-value escaping is shared with the naming module so the lint
    # rule, the registry, and this renderer agree on one grammar.
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every instrument in Prometheus text exposition format.

    Counters get a ``_total``-less passthrough of their registered name
    (names in this codebase already follow the ``_total`` convention);
    histograms become the cumulative ``_bucket``/``_sum``/``_count``
    triple Prometheus expects. Metric names are validated with the shared
    validator (:mod:`repro.obs.names`) so a registry assembled outside
    the normal factories still cannot emit an unscrapable exposition.

    Raises:
        ValueError: when an instrument carries an illegal metric name.
    """
    lines: List[str] = []
    typed: set = set()
    for metric in registry:
        validate_metric_name(metric.name)
        if metric.name not in typed:
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            typed.add(metric.name)
        if isinstance(metric, (Counter, Gauge)):
            lines.append(
                f"{metric.name}{_format_labels(metric.labels)} "
                f"{_format_value(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            cumulative = 0
            for bound, n in zip(metric.bounds, metric.counts):
                cumulative += n
                le = 'le="%s"' % _format_value(bound)
                lines.append(
                    f"{metric.name}_bucket{_format_labels(metric.labels, le)} {cumulative}"
                )
            cumulative += metric.counts[-1]
            inf_le = 'le="+Inf"'
            lines.append(
                f"{metric.name}_bucket{_format_labels(metric.labels, inf_le)} {cumulative}"
            )
            lines.append(
                f"{metric.name}_sum{_format_labels(metric.labels)} "
                f"{_format_value(metric.total)}"
            )
            lines.append(
                f"{metric.name}_count{_format_labels(metric.labels)} {metric.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
