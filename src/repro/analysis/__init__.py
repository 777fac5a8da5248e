"""Statistical utilities shared across FlowDiff components.

This package provides the small, dependency-light statistical toolbox that
the signature builders and comparators rely on:

* :mod:`repro.analysis.stats` -- Pearson and partial correlation, the
  chi-squared fitness statistic used for component-interaction comparison,
  empirical CDFs, and histogram peak extraction for delay distributions.
* :mod:`repro.analysis.timeseries` -- epoch bucketing of timestamped events
  into fixed-width counting windows, as used by the partial-correlation
  signature, plus summary helpers.
"""
