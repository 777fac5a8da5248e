"""Signature diffing and diagnosis (Section IV).

* :mod:`repro.core.diff.compare` — per-signature comparators producing
  :class:`~repro.core.signatures.base.ChangeRecord` lists.
* :mod:`repro.core.diff.validate` — splitting changes into *known*
  (explained by a detected operator task) and *unknown*.
* :mod:`repro.core.diff.dependency` — the application x infrastructure
  dependency matrix and problem-type classification (Figures 2(b) and 8).
* :mod:`repro.core.diff.ranking` — component ranking for localization.
* :mod:`repro.core.diff.report` — the operator-facing diagnosis report.
"""
