"""FlowDiff: diagnosing data center behavior flow by flow.

A from-scratch reproduction of the ICDCS 2013 paper. The package layers:

* :mod:`repro.openflow` -- the OpenFlow control-plane substrate (messages,
  flow tables, switches, a reactive controller, the controller log).
* :mod:`repro.netsim` -- a discrete-event flow-level network simulator that
  stands in for the paper's testbed.
* :mod:`repro.apps` / :mod:`repro.workload` -- multi-tier applications,
  workload generators, and synthetic VM lifecycle traces.
* :mod:`repro.faults` / :mod:`repro.ops` -- operational-problem injectors
  and operator tasks.
* :mod:`repro.core` -- FlowDiff itself: behavioral signatures, task
  automata, and signature diffing into diagnosis reports.

Quickstart::

    from repro import FlowDiff, FlowDiffConfig
    fd = FlowDiff(FlowDiffConfig.with_special_nodes(["svc-dns"]))
    baseline = fd.model(log_good)
    report = fd.diff(baseline, fd.model(log_bad), task_library=tasks,
                     current_log=log_bad)
    print(report.render())
"""

from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.model import BehaviorModel
from repro.core.tasks import TaskEvent, TaskLibrary
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey

__version__ = "1.0.0"

__all__ = [
    "BehaviorModel",
    "FlowDiff",
    "FlowDiffConfig",
    "TaskEvent",
    "TaskLibrary",
    "ControllerLog",
    "FlowKey",
    "__version__",
]
