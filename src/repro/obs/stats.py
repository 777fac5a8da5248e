"""Controller-log statistics: message mix, rates, and top talkers.

Backs the ``repro stats`` subcommand: a fast first look at a capture
(what's in it, how hot is the control channel, who generates the load)
without paying for a full model/diff. Also provides
:func:`record_log_metrics`, which folds a log's message counts into a
:class:`~repro.obs.metrics.MetricsRegistry` so exported metrics can be
reconciled against the capture it came from.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.messages import (
    EchoRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    PacketIn,
    PacketOut,
    PortStatus,
)

#: Message class -> the snake_case kind label used in metrics and output.
MESSAGE_KINDS: Tuple[Tuple[type, str], ...] = (
    (PacketIn, "packet_in"),
    (PacketOut, "packet_out"),
    (FlowMod, "flow_mod"),
    (FlowRemoved, "flow_removed"),
    (PortStatus, "port_status"),
    (FlowStatsReply, "flow_stats_reply"),
    (EchoRequest, "echo_request"),
)

_KIND_OF = {cls: kind for cls, kind in MESSAGE_KINDS}


@dataclass(frozen=True)
class LogSummary:
    """Everything ``repro stats`` prints, as data.

    Attributes:
        messages: total control messages.
        span: ``(first, last)`` message timestamps.
        by_kind: message count per kind label (zero-count kinds included).
        rates: messages/second per kind over the span.
        top_talkers: ``(source host, PacketIn count)`` descending.
        top_switches: ``(dpid, message count)`` descending.
        unanswered_packet_ins: PacketIns with no later FlowMod reply
            (``in_reply_to`` pairing) — the controller-failure smell.
    """

    messages: int
    span: Tuple[float, float]
    by_kind: Dict[str, int] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    top_talkers: Tuple[Tuple[str, int], ...] = ()
    top_switches: Tuple[Tuple[str, int], ...] = ()
    unanswered_packet_ins: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.span[1] - self.span[0])


def summarize_log(log: ControllerLog, top: int = 5) -> LogSummary:
    """Compute the :class:`LogSummary` of a capture in one pass."""
    by_kind = {kind: 0 for _, kind in MESSAGE_KINDS}
    talkers: TallyCounter = TallyCounter()
    switches: TallyCounter = TallyCounter()
    replied: set = set()
    packet_in_ids: List[int] = []
    for msg in log:
        kind = _KIND_OF.get(type(msg))
        if kind is not None:
            by_kind[kind] += 1
        switches[msg.dpid] += 1
        if type(msg) is PacketIn:
            if msg.flow is not None:  # a flowless PacketIn names no talker
                talkers[msg.flow.src] += 1
            packet_in_ids.append(msg.buffer_id)
        elif type(msg) is FlowMod and msg.in_reply_to is not None:
            replied.add(msg.in_reply_to)

    span = log.time_span
    duration = max(0.0, span[1] - span[0])
    rates = {
        kind: (count / duration if duration > 0 else 0.0)
        for kind, count in by_kind.items()
    }
    unanswered = sum(1 for bid in packet_in_ids if bid not in replied)
    return LogSummary(
        messages=len(log),
        span=span,
        by_kind=by_kind,
        rates=rates,
        top_talkers=tuple(talkers.most_common(top)),
        top_switches=tuple(switches.most_common(top)),
        unanswered_packet_ins=unanswered,
    )


def render_summary(summary: LogSummary, name: str = "capture") -> str:
    """Format a :class:`LogSummary` as the ``repro stats`` report."""
    t0, t1 = summary.span
    lines = [
        f"{name}: {summary.messages} control messages over "
        f"[{t0:.2f}, {t1:.2f}]s ({summary.duration:.2f}s)",
        "",
        f"  {'message kind':<18} {'count':>8} {'rate/s':>10}",
    ]
    for kind, count in sorted(
        summary.by_kind.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        if count == 0:
            continue
        lines.append(f"  {kind:<18} {count:>8} {summary.rates[kind]:>10.2f}")
    if summary.unanswered_packet_ins:
        lines.append(
            f"  unanswered PacketIn: {summary.unanswered_packet_ins} "
            "(no FlowMod reply — controller gap?)"
        )
    if summary.top_talkers:
        lines.append("")
        lines.append("  top talkers (PacketIn sources):")
        for host, count in summary.top_talkers:
            lines.append(f"    {host:<12} {count:>8}")
    if summary.top_switches:
        lines.append("")
        lines.append("  busiest switches (all messages):")
        for dpid, count in summary.top_switches:
            lines.append(f"    {dpid:<12} {count:>8}")
    return "\n".join(lines)


def record_log_metrics(
    registry: MetricsRegistry, log: ControllerLog, role: str = "current"
) -> None:
    """Fold a capture's message counts into ``registry``.

    Emits ``log_messages_total{kind=..., role=...}`` counters (one per
    message kind, including zeros, so consumers can rely on presence) and
    a ``log_span_seconds{role=...}`` gauge. The counters reconcile exactly
    with the log: ``log_messages_total{kind="packet_in"}`` equals
    ``len(log.packet_ins())`` by construction, which the ``repro simulate
    --metrics-out`` tests assert end to end.
    """
    summary = summarize_log(log, top=0)
    for kind, count in summary.by_kind.items():
        registry.counter("log_messages_total", kind=kind, role=role).inc(count)
    registry.gauge("log_span_seconds", role=role).set(summary.duration)
    registry.gauge("log_messages", role=role).set(summary.messages)
