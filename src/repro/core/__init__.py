"""FlowDiff core: the paper's primary contribution.

Public entry points:

* :class:`~repro.core.flowdiff.FlowDiff` — model controller logs and diff
  models into diagnosis reports.
* :class:`~repro.core.tasks.library.TaskLibrary` — learn and detect
  operator-task signatures.
* :mod:`repro.core.signatures` — the individual signature builders, for
  users who want the pieces.
"""

from repro.core.events import (
    FlowArrival,
    FlowRecord,
    HopReport,
    extract_flow_arrivals,
    extract_flow_records,
    join_flow_records,
    splits_occurrence,
    timed_flows,
)
from repro.core.groups import ApplicationGroup, extract_groups, match_groups
from repro.core.model import BehaviorModel
from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.monitor import SlidingDiagnoser, WindowReport
from repro.core.persist import (
    ModelLoadError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.stability import StabilityThresholds, assess_stability
from repro.core.tasks import TaskDetector, TaskEvent, TaskLibrary, TaskSignature

__all__ = [
    "FlowArrival",
    "FlowRecord",
    "HopReport",
    "extract_flow_arrivals",
    "extract_flow_records",
    "join_flow_records",
    "splits_occurrence",
    "timed_flows",
    "ApplicationGroup",
    "extract_groups",
    "match_groups",
    "BehaviorModel",
    "FlowDiff",
    "FlowDiffConfig",
    "SlidingDiagnoser",
    "WindowReport",
    "ModelLoadError",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "StabilityThresholds",
    "assess_stability",
    "TaskDetector",
    "TaskEvent",
    "TaskLibrary",
    "TaskSignature",
]
