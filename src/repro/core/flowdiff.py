"""The FlowDiff facade: model a log, diff two models, diagnose.

This is the library's primary entry point, mirroring Figure 1::

    fd = FlowDiff(FlowDiffConfig(special_nodes=("svc-dns", "svc-nfs")))
    baseline = fd.model(log_l1)          # known-good behavior
    current = fd.model(log_l2)           # behavior when a problem is seen
    report = fd.diff(baseline, current, task_library=library,
                     current_log=log_l2)
    print(report.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.diff.compare import CompareThresholds, compare_models
from repro.core.diff.dependency import DependencyMatrix, classify_problems
from repro.core.diff.ranking import rank_components
from repro.core.diff.report import DiagnosisReport
from repro.core.diff.validate import (
    DEFAULT_EXPLANATIONS,
    TaskExplanation,
    validate_changes,
)
from repro.core.events import extract_flow_records
from repro.core.model import BehaviorModel
from repro.core.signatures.application import (
    SignatureConfig,
    build_application_signatures,
)
from repro.core.signatures.infrastructure import build_infrastructure_signature
from repro.core.stability import StabilityThresholds, assess_stability
from repro.core.tasks.library import TaskLibrary
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.openflow.log import ControllerLog
from repro.openflow.messages import PortStatus


@dataclass(frozen=True)
class FlowDiffConfig:
    """All tunables of the modeling and diagnosing phases.

    Attributes:
        signature: application-signature construction knobs (epochs, DD
            window/bins, occurrence gap, special nodes).
        thresholds: significance thresholds for the diff comparators.
        stability: across-interval stability thresholds.
        stability_parts: number of sub-intervals for stability assessment;
            0 disables assessment (all signatures treated stable).
        explanations: task-type -> explainable-change-kind rules used
            during validation.
        jobs: accepted and ignored — nothing reads it.
    """

    signature: SignatureConfig = field(default_factory=SignatureConfig)
    thresholds: CompareThresholds = field(default_factory=CompareThresholds)
    stability: StabilityThresholds = field(default_factory=StabilityThresholds)
    stability_parts: int = 3
    explanations: Tuple[TaskExplanation, ...] = DEFAULT_EXPLANATIONS
    # Unread: bench/batch_tree.py still constructs FlowDiffConfig(jobs=2)
    # and bench/ is frozen outside benchmark PRs; drop both together.
    jobs: int = 1

    @classmethod
    def with_special_nodes(cls, special_nodes: Sequence[str]) -> "FlowDiffConfig":
        """Convenience constructor setting only the service-node list."""
        return cls(signature=SignatureConfig(special_nodes=tuple(special_nodes)))


class FlowDiff:
    """The diagnosis framework: modeling plus diffing (Figure 1).

    Args:
        config: modeling/diffing tunables.
        tracer: when given, every pipeline phase (extract, app-signature,
            infra-signature, stability, compare, validate, rank, ...) is
            recorded as a nested span — this is what ``--profile`` prints.
        metrics: when given, per-call counters and latency histograms are
            recorded. Both default to shared no-op objects so the
            uninstrumented pipeline pays only one method call per *phase*.
    """

    def __init__(
        self,
        config: Optional[FlowDiffConfig] = None,
        tracer: Tracer = NOOP_TRACER,
        metrics: MetricsRegistry = NOOP_REGISTRY,
    ) -> None:
        self.config = config or FlowDiffConfig()
        self.tracer = tracer
        self.metrics = metrics
        self._m_models = metrics.counter("flowdiff_models_total")
        self._m_diffs = metrics.counter("flowdiff_diffs_total")
        self._m_changes = metrics.counter("flowdiff_changes_total", status="unknown")
        self._m_explained = metrics.counter("flowdiff_changes_total", status="explained")

    # ------------------------------------------------------------------
    # Modeling phase
    # ------------------------------------------------------------------

    def model(
        self,
        log: ControllerLog,
        window: Optional[Tuple[float, float]] = None,
        assess: bool = True,
        records: Optional[Sequence] = None,
    ) -> BehaviorModel:
        """Build the behavior model of one log window.

        Args:
            log: the controller capture.
            window: explicit bounds; defaults to the log's span.
            assess: whether to run stability assessment (skippable for
                short logs or performance benchmarks).
            records: pre-extracted flow records for this log (as produced
                by :func:`~repro.core.events.extract_flow_records`);
                supplying them skips extraction — the sliding monitor
                uses this to model one window it already decoded.
        """
        if window is None:
            window = log.time_span
        with self.tracer.span(
            "model", messages=len(log), window=list(window)
        ):
            if records is None:
                with self.tracer.span("extract"):
                    records = extract_flow_records(
                        log, self.config.signature.occurrence_gap
                    )
            arrivals = [r.arrival for r in records]
            with self.tracer.span("app-signature"):
                app_sigs = build_application_signatures(
                    log, self.config.signature, window=window, records=records
                )
            with self.tracer.span("infra-signature"):
                port_down = [
                    (msg.timestamp, msg.dpid, msg.port)
                    for msg in log.of_type(PortStatus)
                    if not msg.live
                ]
                infra = build_infrastructure_signature(
                    arrivals, port_down_events=port_down
                )
            stability = {}
            if assess and self.config.stability_parts >= 2:
                with self.tracer.span("stability", parts=self.config.stability_parts):
                    stability = assess_stability(
                        log,
                        self.config.signature,
                        parts=self.config.stability_parts,
                        thresholds=self.config.stability,
                        window=window,
                        # The full-window signatures and arrivals were just
                        # built above — don't let the assessment re-derive
                        # either from the log.
                        full=app_sigs,
                        arrivals=arrivals,
                    )
            model = BehaviorModel(
                app_signatures=app_sigs,
                infrastructure=infra,
                window=window,
                stability=stability,
            )
        self._m_models.inc()
        return model

    # ------------------------------------------------------------------
    # Diagnosing phase
    # ------------------------------------------------------------------

    def diff(
        self,
        baseline: BehaviorModel,
        current: BehaviorModel,
        task_library: Optional[TaskLibrary] = None,
        current_log: Optional[ControllerLog] = None,
    ) -> DiagnosisReport:
        """Compare two models and produce the diagnosis report.

        Args:
            baseline: the known-good model (from L1).
            current: the model under suspicion (from L2).
            task_library: learned task signatures; when provided together
                with ``current_log``, tasks detected in the current log
                explain (and silence) matching changes.
            current_log: the log behind ``current``, needed for task
                detection.
        """
        with self.tracer.span("diff"):
            with self.tracer.span("compare"):
                changes = compare_models(baseline, current, self.config.thresholds)
            task_events = ()
            if task_library is not None and current_log is not None:
                with self.tracer.span("task-detect"):
                    task_events = tuple(task_library.detect_in_log(current_log))
            with self.tracer.span("validate"):
                unknown, known = validate_changes(
                    changes, task_events, self.config.explanations
                )
            with self.tracer.span("rank"):
                problems = tuple(classify_problems(unknown))
                dependency = DependencyMatrix.from_changes(unknown)
                ranking = tuple(rank_components(unknown))
        self._m_diffs.inc()
        self._m_changes.inc(len(unknown))
        self._m_explained.inc(len(known))
        return DiagnosisReport(
            unknown_changes=tuple(unknown),
            known_changes=tuple(known),
            task_events=task_events,
            problems=problems,
            dependency=dependency,
            component_ranking=ranking,
        )
