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
from typing import Optional

from repro.core.diff.ranking import select_evidence_flows
from repro.core.diff.report import DiagnosisReport, EvidenceChain
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.openflow.log import ControllerLog


def attach_evidence(
    report: DiagnosisReport,
    current_log: ControllerLog,
    metrics: Optional[MetricsRegistry] = None,
    max_components: int = 3,
    max_flows_per_component: int = 3,
) -> DiagnosisReport:
    """Return a copy of ``report`` with evidence chains for top suspects.

    Args:
        report: the diagnosis to enrich.
        current_log: the capture behind the *current* model — evidence
            must come from the problem window, not the baseline.
        metrics: optional registry; occupancy samples annotate each chain.
        max_components: how many ranked suspects get evidence.
        max_flows_per_component: flows kept per suspect (worst first).

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
        if not implicated:
            continue
        chains.append(
            EvidenceChain(
                component=component,
                score=score,
                timelines=tuple(
                    select_evidence_flows(implicated, limit=max_flows_per_component)
                ),
            )
        )
    return replace(report, evidence=tuple(chains))
