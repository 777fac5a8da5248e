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
* :mod:`repro.qa.concurrency` — the concurrency rules over the service
  and its HTTP surface (shared-state, unmanaged-thread,
  lock-confinement); part of :func:`~repro.qa.rules.default_rules`.
  ``shared-state`` checks that every lock body is a leaf and that, in a
  class that builds a lock or starts a worker thread, every attribute
  written after ``__init__`` is under one lock, private to the worker
  thread, or published whole in ``_GUARDED_BY``.
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

__all__ = [
    "CONCURRENCY_PACKAGES",
    "Finding",
    "LintEngine",
    "LintResult",
    "ModuleFile",
    "Project",
    "Rule",
    "concurrency_rules",
    "default_rules",
    "render_json",
    "render_text",
]
