"""The task library: learn automata from runs, detect tasks in logs.

Ties the mining, automaton, and detection pieces together behind the
workflow the paper describes: capture multiple runs of each operator task,
reduce them to common flows, mine states, build the automaton (optionally
with IP masking so one VM's task generalizes to all VMs), then scan
controller logs to produce task time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.events import timed_flows
from repro.core.tasks.automaton import TaskAutomaton
from repro.core.tasks.detector import TaskDetector, TaskEvent, TimedFlow
from repro.core.tasks.mining import common_flows, filter_to_common
from repro.openflow.log import ControllerLog
from repro.openflow.match import MaskedFlow, mask_flows


@dataclass(frozen=True)
class TaskSignature:
    """A learned task: its automaton plus learning metadata.

    Attributes:
        name: task-type label.
        automaton: the acceptor.
        masked: whether host identities were generalized to placeholders.
        n_runs: how many training runs produced it.
        min_sup: the support threshold used.
    """

    name: str
    automaton: TaskAutomaton
    masked: bool
    n_runs: int
    min_sup: float


class TaskLibrary:
    """Learned task signatures and the detection entry point.

    Args:
        service_names: concrete-host -> service-label mapping (the operator
            domain knowledge); consistent between learning and detection.
        interleave_threshold: matcher noise tolerance in seconds.
    """

    def __init__(
        self,
        service_names: Optional[Mapping[str, str]] = None,
        interleave_threshold: float = 1.0,
    ) -> None:
        self.service_names = dict(service_names or {})
        self.interleave_threshold = interleave_threshold
        self.signatures: Dict[str, TaskSignature] = {}

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def labeled_runs(
        self,
        runs: Sequence[Sequence[TimedFlow]],
        masked: bool = True,
    ) -> List[List[MaskedFlow]]:
        """Convert timed-flow runs into label sequences for mining.

        Flows are time-ordered and converted to :class:`MaskedFlow`
        templates — with or without host masking — using the library's
        service mapping so well-known services keep their identity.
        """
        labeled = []
        for run in runs:
            ordered = [key for _, key in sorted(run, key=lambda tf: tf[0])]
            labeled.append(
                mask_flows(
                    ordered,
                    service_names=self.service_names,
                    mask_hosts=masked,
                )
            )
        return labeled

    def learn(
        self,
        name: str,
        runs: Sequence[Sequence[TimedFlow]],
        min_sup: float = 0.6,
        masked: bool = True,
        max_pattern_length: int = 0,
        edge_min_sup: float = 0.3,
    ) -> TaskSignature:
        """Learn one task's signature from multiple training runs.

        Implements the paper's three stages: common flows across runs,
        frequent/closed pattern mining, automaton construction.
        ``edge_min_sup`` controls outlier pruning of start/accept states
        (see :meth:`repro.core.tasks.automaton.TaskAutomaton.build`).

        Raises:
            ValueError: if no runs are given or they share no flows.
        """
        if not runs:
            raise ValueError(f"no training runs for task {name!r}")
        labeled = self.labeled_runs(runs, masked=masked)
        common = common_flows(labeled)
        if not common:
            raise ValueError(
                f"training runs for task {name!r} share no common flows"
            )
        filtered = filter_to_common(labeled, common)
        automaton = TaskAutomaton.build(
            filtered,
            min_sup=min_sup,
            max_pattern_length=max_pattern_length,
            edge_min_sup=edge_min_sup,
        )
        signature = TaskSignature(
            name=name,
            automaton=automaton,
            masked=masked,
            n_runs=len(runs),
            min_sup=min_sup,
        )
        self.signatures[name] = signature
        return signature

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def detector(self) -> TaskDetector:
        """A detector over every learned signature."""
        return TaskDetector(
            automata={
                name: sig.automaton for name, sig in self.signatures.items()
            },
            service_names=self.service_names,
            interleave_threshold=self.interleave_threshold,
        )

    def detect(self, flows: Sequence[TimedFlow]) -> List[TaskEvent]:
        """The task time series of a flow stream."""
        return self.detector().detect(flows)

    def detect_in_log(
        self, log: ControllerLog, dedup_window: float = 0.05
    ) -> List[TaskEvent]:
        """The task time series of a controller log.

        ``dedup_window`` collapses the per-switch PacketIn fan-out of each
        flow so one traversal is one detection input.
        """
        return self.detect(timed_flows(log, dedup_window=dedup_window))
