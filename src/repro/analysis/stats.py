"""Core statistics used by FlowDiff signatures and comparators.

The paper relies on a handful of classical statistics:

* Pearson's correlation coefficient over epoch-bucketed flow counts for the
  partial-correlation (PC) application signature (Section III-B).
* A chi-squared fitness test between flow-count distributions for the
  component-interaction (CI) comparison (Section IV-A).
* Peaks of delay-frequency histograms for the delay-distribution (DD)
  signature (Section III-B).
* Mean / standard deviation summaries for inter-switch latency (ISL) and
  controller response time (CRT) infrastructure signatures (Section III-C).

All helpers are implemented over plain sequences so they remain usable on
streams decoded from controller logs without intermediate copies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv
from typing import Iterable, List, Sequence, Tuple


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Return the sample mean and population standard deviation.

    FlowDiff summarizes noisy per-measurement quantities (inter-switch
    latencies, controller response times) by their first two moments rather
    than raw samples, because individual latencies vary with switch
    processing time (Section III-C).

    Args:
        values: observed samples; may be empty.

    Returns:
        ``(mean, std)``; ``(0.0, 0.0)`` for an empty input so callers can
        treat "no measurements" as a degenerate but comparable summary.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    var = sum([(v - mean) ** 2 for v in values]) / n
    return mean, math.sqrt(var)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's correlation coefficient between two equal-length series.

    Returns 0.0 when either series is constant (zero variance) or when the
    series are shorter than two points; the paper treats such degenerate
    edges as uncorrelated rather than undefined so that signature comparison
    never propagates NaNs.

    Raises:
        ValueError: if the two series differ in length.
    """
    if len(xs) != len(ys):
        raise ValueError(
            f"series length mismatch: {len(xs)} vs {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    # Multiply the roots (not root the product) to dodge underflow when
    # both variances are tiny but non-zero.
    denom = math.sqrt(sxx) * math.sqrt(syy)
    if denom <= 0.0:
        return 0.0
    r = sxy / denom
    # Guard against floating point drift outside [-1, 1].
    return max(-1.0, min(1.0, r))


def chi_squared(observed: Sequence[float], expected: Sequence[float]) -> float:
    """Chi-squared fitness statistic between observed and expected counts.

    Implements the paper's CI comparison (Section IV-A):

    ``chi^2 = sum_i (O_i - E_i)^2 / E_i``

    Expected-count cells equal to zero contribute the squared observed count
    (with a unit denominator) when the observation is non-zero, so the
    appearance of flows on a previously silent edge registers as a large
    deviation instead of a division error; matching zero cells contribute
    nothing.

    Raises:
        ValueError: if the two distributions differ in length.
    """
    if len(observed) != len(expected):
        raise ValueError(
            f"distribution length mismatch: {len(observed)} vs {len(expected)}"
        )
    total = 0.0
    for o, e in zip(observed, expected):
        if e > 0.0:
            total += (o - e) ** 2 / e
        elif o > 0.0:
            total += float(o) ** 2
    return total


def histogram_peaks(
    values: Sequence[float],
    bin_width: float,
    min_count: int = 1,
    max_peaks: int = 5,
) -> List[Tuple[float, int]]:
    """Extract the dominant peaks of a delay-frequency histogram.

    The DD signature uses "peaks of the delay distribution frequency"
    (Section III-B): delays between dependent flows cluster around the
    server's processing time, so the most frequent bin identifies it. The
    paper plots delays with 20 ms bins (Figure 10); ``bin_width`` makes the
    binning explicit.

    A bin is a peak if its count is a local maximum among neighbouring bins
    (plateaus count once, at their first bin). Peaks are returned as
    ``(bin_center, count)`` sorted by descending count and truncated to
    ``max_peaks``.

    Args:
        values: raw delay samples (seconds or milliseconds, caller's choice).
        bin_width: histogram bin width in the same unit as ``values``.
        min_count: discard peaks whose bin count is below this threshold.
        max_peaks: keep at most this many dominant peaks.

    Raises:
        ValueError: if ``bin_width`` is not positive.
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if not values:
        return []
    counts = Counter(map(int, map(floordiv, values, repeat(bin_width))))
    peaks: List[Tuple[float, int]] = []
    get = counts.get
    for idx in sorted(counts):
        c = counts[idx]
        # Local maximum; a plateau is attributed to its leftmost bin. Every
        # present bin counts at least 1, so an empty left neighbour (0) is
        # always strictly below.
        if c >= min_count and c >= get(idx + 1, 0) and c > get(idx - 1, 0):
            peaks.append(((idx + 0.5) * bin_width, c))
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks[:max_peaks]


def percentile_index(count: int, q: float) -> int:
    """0-based order-statistic index for quantile ``q`` of ``count`` values.

    The inverted-CDF convention (``ceil(q*n) - 1``), matching
    ``numpy.percentile(..., method="inverted_cdf")``, which the tests
    recompute it against.
    """
    if count <= 0:
        return 0
    return min(count - 1, max(0, math.ceil(q * count) - 1))


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical cumulative distribution function over observed samples.

    Used to reproduce the CDF plots of Figure 9 (per-flow byte counts and
    inter-flow delays under injected faults) and to compare distributions via
    the Kolmogorov-Smirnov distance.
    """

    samples: Tuple[float, ...]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmpiricalCDF":
        """Build a CDF from an iterable of raw samples (sorted internally)."""
        return cls(samples=tuple(sorted(values)))

    def __call__(self, x: float) -> float:
        """Return ``P(X <= x)``; 0.0 for an empty sample set."""
        if not self.samples:
            return 0.0
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.samples)

    def quantile(self, q: float) -> float:
        """Return the smallest sample at or above quantile ``q`` in [0, 1].

        Raises:
            ValueError: if ``q`` is outside [0, 1] or the CDF is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            raise ValueError("quantile of an empty CDF is undefined")
        return self.samples[percentile_index(len(self.samples), q)]

    def ks_distance(self, other: "EmpiricalCDF") -> float:
        """Two-sample Kolmogorov-Smirnov distance ``sup_x |F1(x) - F2(x)|``.

        A convenient scalar for asserting that a fault visibly shifted a
        distribution (Figure 9) without comparing absolute values.
        """
        if not self.samples or not other.samples:
            return 1.0 if (self.samples or other.samples) else 0.0
        points = sorted(set(self.samples) | set(other.samples))
        return max(abs(self(x) - other(x)) for x in points)

    def points(self) -> List[Tuple[float, float]]:
        """Return ``(value, fraction)`` pairs suitable for plotting."""
        n = len(self.samples)
        return [(v, (i + 1) / n) for i, v in enumerate(self.samples)]
