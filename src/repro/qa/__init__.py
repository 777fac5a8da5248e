"""flowlint: domain-invariant static analysis for the reproduction.

FlowDiff's correctness rests on invariants the interpreter never checks:
simulation determinism (captures must replay identically or L1/L2 diffs
reflect the run, not the network) and one signature contract (the differ
compares them, the model file round-trips them). This package enforces
those invariants statically, as an AST pass over the source tree, exposed
as ``repro lint`` and run as a hard CI gate. Stable serialization schemas
are not a lint rule: the tests pin each family's field set under its
``FORMAT_VERSION`` (captures from the field table of
:mod:`repro.openflow.serialize`, models and task libraries from what
their encoders write).

Layout:

* :mod:`repro.qa.framework` — the engine: :class:`~repro.qa.framework.Rule`
  base class, per-file dispatch, ``# flowlint: disable=RULE`` pragmas,
  text/JSON reporters.
* :mod:`repro.qa.rules` — the domain rules (sim-clock discipline,
  determinism, open() encoding, signature contract, metric hygiene).
* :mod:`repro.qa.concurrency` — the per-class concurrency rules
  (lock-discipline, blocking-under-lock, lock-order, unmanaged-thread,
  lock-confinement) over the service and its HTTP surface; part of
  :func:`~repro.qa.rules.default_rules`.
* :mod:`repro.qa.sanitizer` — the opt-in runtime Eraser-style lockset
  tracker. The static rules see one class at a time; the service stress
  test runs this tracker to check what one object reaches in another
  (the drain thread into a tenant, an HTTP handler into its view).
"""

from repro.qa.concurrency import CONCURRENCY_PACKAGES, concurrency_rules
from repro.qa.framework import (
    Finding,
    LintEngine,
    LintResult,
    ModuleFile,
    Project,
    Rule,
    render_json,
    render_text,
)
from repro.qa.rules import default_rules
from repro.qa.sanitizer import (
    LocksetChecker,
    RaceReport,
    TrackedLock,
    instrument_class,
    wrap_locks,
)

__all__ = [
    "CONCURRENCY_PACKAGES",
    "Finding",
    "LintEngine",
    "LintResult",
    "LocksetChecker",
    "ModuleFile",
    "Project",
    "RaceReport",
    "Rule",
    "TrackedLock",
    "concurrency_rules",
    "default_rules",
    "instrument_class",
    "render_json",
    "render_text",
    "wrap_locks",
]
