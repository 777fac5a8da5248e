"""Attach flight-recorder evidence chains to a diagnosis report.

The diff pipeline ranks suspect components by change association
(Section IV-C); this module makes each verdict actionable by pairing the
top suspects with the causal timelines of the flows that implicate them —
the per-flow evidence chains 007 (Arzani et al.) argues localization
verdicts need. The operator reads, for each suspect, what its flows
actually experienced: trigger, controller decision, installs, hops,
expiry — and which stages went missing when the component broke.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.core.diff.ranking import select_evidence_flows
from repro.core.diff.report import DiagnosisReport, EvidenceChain, TelemetryRecord
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryPlane
from repro.openflow.log import ControllerLog


def telemetry_records_for(
    plane: TelemetryPlane, component: str, limit: int = 4
) -> Tuple[TelemetryRecord, ...]:
    """The suspect's worst-window telemetry readings, most severe first.

    A bare node suspect also picks up its ``a--b`` link series (and vice
    versa), mirroring how the ranking step attributes edge changes to
    endpoints. The suspect's *own* series always rank above a neighbor's
    (peak magnitudes are not comparable across metrics — one busy
    neighbor's ``tx_bytes`` must not bury the suspect's drop burst);
    within each tier the highest peak reading leads.
    """
    wanted = frozenset(component.split("--"))
    records: List[Tuple[int, TelemetryRecord]] = []
    for series in plane.for_component(component):
        peak = series.peak_window()
        if peak is None or series.count == 0:
            continue
        exact = 0 if frozenset(series.component.split("--")) == wanted else 1
        value = peak.total if series.counter else peak.vmax
        records.append(
            (
                exact,
                TelemetryRecord(
                    kind=series.kind,
                    component=series.component,
                    metric=series.metric,
                    t_start=peak.t_start,
                    t_end=peak.t_end,
                    value=value,
                    mean=peak.mean,
                    p95=peak.p95,
                    counter=series.counter,
                ),
            )
        )
    records.sort(
        key=lambda e: (e[0], -e[1].value, e[1].kind, e[1].component, e[1].metric)
    )
    return tuple(r for _, r in records[: max(0, limit)])


def attach_evidence(
    report: DiagnosisReport,
    current_log: ControllerLog,
    metrics: Optional[MetricsRegistry] = None,
    max_components: int = 3,
    max_flows_per_component: int = 3,
    telemetry: Optional[TelemetryPlane] = None,
    max_series_per_component: int = 4,
) -> DiagnosisReport:
    """Return a copy of ``report`` with evidence chains for top suspects.

    Args:
        report: the diagnosis to enrich.
        current_log: the capture behind the *current* model — evidence
            must come from the problem window, not the baseline.
        metrics: optional registry; occupancy samples annotate each chain.
        max_components: how many ranked suspects get evidence.
        max_flows_per_component: flows kept per suspect (worst first).
        telemetry: optional data-plane telemetry plane from the same run;
            each suspect's chain then carries its worst-window readings
            (utilization spikes, drop bursts, latency peaks).
        max_series_per_component: telemetry records kept per suspect.

    Only the chains of flows that can touch one of those suspects are
    built (:meth:`FlightRecorder.for_component`), so the cost follows the
    suspects' flows, not the capture. A healthy report (no ranked
    suspects) is returned unchanged.
    """
    if not report.component_ranking:
        return report
    recorder = FlightRecorder.from_log(current_log, metrics=metrics)
    chains = []
    for component, score in report.component_ranking[: max(0, max_components)]:
        implicated = recorder.for_component(component)
        records = (
            telemetry_records_for(telemetry, component, max_series_per_component)
            if telemetry is not None
            else ()
        )
        if not implicated and not records:
            continue
        chains.append(
            EvidenceChain(
                component=component,
                score=score,
                timelines=tuple(
                    select_evidence_flows(implicated, limit=max_flows_per_component)
                ),
                telemetry=records,
            )
        )
    return replace(report, evidence=tuple(chains))
