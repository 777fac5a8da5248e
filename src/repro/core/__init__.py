"""FlowDiff core: the paper's primary contribution.

Public entry points:

* :class:`~repro.core.flowdiff.FlowDiff` — model controller logs and diff
  models into diagnosis reports.
* :class:`~repro.core.tasks.library.TaskLibrary` — learn and detect
  operator-task signatures.
* :mod:`repro.core.signatures` — the individual signature builders, for
  users who want the pieces.
"""
