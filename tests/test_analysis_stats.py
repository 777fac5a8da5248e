"""Unit and property tests for repro.analysis.stats."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import (
    EmpiricalCDF,
    chi_squared,
    histogram_peaks,
    mean_std,
    pearson,
    percentile_index,
)


class TestMeanStd:
    def test_empty(self):
        assert mean_std([]) == (0.0, 0.0)

    def test_single_value(self):
        mean, std = mean_std([5.0])
        assert mean == 5.0
        assert std == 0.0

    def test_known_values(self):
        mean, std = mean_std([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(math.sqrt(1.25))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_std_nonnegative(self, values):
        _, std = mean_std(values)
        assert std >= 0.0

    @given(st.floats(-1e6, 1e6), st.integers(2, 20))
    def test_constant_series_zero_std(self, v, n):
        mean, std = mean_std([v] * n)
        assert mean == pytest.approx(v)
        assert std == pytest.approx(0.0, abs=1e-6)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_short_series_is_zero(self):
        assert pearson([1], [2]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_independent_noise_near_zero(self):
        import random

        rng = random.Random(1)
        xs = [rng.random() for _ in range(2000)]
        ys = [rng.random() for _ in range(2000)]
        assert abs(pearson(xs, ys)) < 0.1

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=30),
        st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    )
    def test_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        r = pearson(xs[:n], ys[:n])
        assert -1.0 <= r <= 1.0

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30))
    def test_symmetric(self, xs):
        ys = [x * 0.5 + 1 for x in xs]
        assert pearson(xs, ys) == pytest.approx(pearson(ys, xs))


class TestChiSquared:
    def test_identical_is_zero(self):
        assert chi_squared([5, 5, 5], [5, 5, 5]) == 0.0

    def test_known_value(self):
        assert chi_squared([10, 20], [15, 15]) == pytest.approx(
            (10 - 15) ** 2 / 15 + (20 - 15) ** 2 / 15
        )

    def test_zero_expected_nonzero_observed_penalized(self):
        assert chi_squared([3, 0], [0, 3]) == pytest.approx(9.0 + 3.0)

    def test_both_zero_cell_free(self):
        assert chi_squared([0, 5], [0, 5]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            chi_squared([1], [1, 2])

    @given(
        st.lists(st.floats(0, 1000), min_size=1, max_size=20),
        st.lists(st.floats(0.1, 1000), min_size=1, max_size=20),
    )
    def test_nonnegative(self, obs, exp):
        n = min(len(obs), len(exp))
        assert chi_squared(obs[:n], exp[:n]) >= 0.0


class TestHistogramPeaks:
    def test_empty(self):
        assert histogram_peaks([], 1.0) == []

    def test_single_mode(self):
        values = [10.1, 10.2, 10.3, 10.4, 3.0]
        peaks = histogram_peaks(values, 1.0)
        assert peaks[0][0] == pytest.approx(10.5)
        assert peaks[0][1] == 4

    def test_two_modes_ordered_by_count(self):
        values = [1.1] * 5 + [7.2] * 9
        peaks = histogram_peaks(values, 1.0)
        assert peaks[0][0] == pytest.approx(7.5)
        assert peaks[1][0] == pytest.approx(1.5)

    def test_min_count_filters(self):
        values = [1.1] * 2 + [7.2] * 9
        peaks = histogram_peaks(values, 1.0, min_count=3)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(7.5)

    def test_bad_bin_width_raises(self):
        with pytest.raises(ValueError):
            histogram_peaks([1.0], 0.0)

    def test_max_peaks_cap(self):
        values = []
        for i in range(10):
            values.extend([i * 5.0 + 0.5] * (i + 1))
        peaks = histogram_peaks(values, 1.0, max_peaks=3)
        assert len(peaks) == 3

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=100))
    def test_dominant_peak_is_true_mode(self, values):
        peaks = histogram_peaks(values, 5.0)
        if peaks:
            # The top peak's count must equal the max bin count.
            bins = {}
            for v in values:
                bins[int(v // 5.0)] = bins.get(int(v // 5.0), 0) + 1
            assert peaks[0][1] == max(bins.values())


def oracle_histogram_peaks(values, bin_width, min_count=1, max_peaks=5):
    """The peak finder before its dead clauses went; verbatim."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if not values:
        return []
    counts = {}
    for v in values:
        counts[int(v // bin_width)] = counts.get(int(v // bin_width), 0) + 1
    indices = sorted(counts)
    peaks = []
    for i, idx in enumerate(indices):
        c = counts[idx]
        left = counts.get(idx - 1, 0)
        right = counts.get(idx + 1, 0)
        if c >= min_count and c >= right and (c > left or left == 0 and i == 0):
            if c > left or (c == left and idx - 1 not in counts):
                peaks.append(((idx + 0.5) * bin_width, c))
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks[:max_peaks]


class TestHistogramPeaksOracle:
    #: Multiples of the bin width land on bin edges (or a float's width
    #: off them); the rest are anywhere, negative delays included.
    values = st.lists(
        st.one_of(
            st.integers(-10, 40).map(lambda k: k * 0.02),
            st.floats(-0.5, 1.0, allow_nan=False),
        ),
        max_size=80,
    )

    @given(values, st.sampled_from([0.02, 0.05, 1.0]), st.integers(0, 4), st.integers(1, 6))
    def test_equals_the_oracle(self, values, bin_width, min_count, max_peaks):
        got = histogram_peaks(values, bin_width, min_count, max_peaks)
        assert got == oracle_histogram_peaks(values, bin_width, min_count, max_peaks)

    def test_nan_raises_like_the_oracle(self):
        with pytest.raises(ValueError):
            oracle_histogram_peaks([0.1, float("nan")], 0.02)
        with pytest.raises(ValueError):
            histogram_peaks([0.1, float("nan")], 0.02)


class TestEmpiricalCDF:
    def test_monotone_and_bounded(self):
        cdf = EmpiricalCDF.from_values([3.0, 1.0, 2.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == pytest.approx(1 / 3)
        assert cdf(2.5) == pytest.approx(2 / 3)
        assert cdf(10.0) == 1.0

    def test_quantile(self):
        cdf = EmpiricalCDF.from_values(range(1, 101))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 100
        assert cdf.quantile(0.0) == 1

    def test_quantile_validation(self):
        cdf = EmpiricalCDF.from_values([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)
        with pytest.raises(ValueError):
            EmpiricalCDF.from_values([]).quantile(0.5)

    def test_ks_distance_identical_zero(self):
        cdf = EmpiricalCDF.from_values([1, 2, 3])
        assert cdf.ks_distance(cdf) == 0.0

    def test_ks_distance_disjoint_is_one(self):
        a = EmpiricalCDF.from_values([1, 2])
        b = EmpiricalCDF.from_values([10, 20])
        assert a.ks_distance(b) == pytest.approx(1.0)

    def test_points_for_plotting(self):
        cdf = EmpiricalCDF.from_values([2.0, 1.0])
        assert cdf.points() == [(1.0, 0.5), (2.0, 1.0)]

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=50),
        st.floats(0, 100),
    )
    def test_cdf_in_unit_interval(self, values, x):
        cdf = EmpiricalCDF.from_values(values)
        assert 0.0 <= cdf(x) <= 1.0

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_ks_symmetric(self, values):
        a = EmpiricalCDF.from_values(values)
        b = EmpiricalCDF.from_values([v + 1 for v in values])
        assert a.ks_distance(b) == pytest.approx(b.ks_distance(a))


def test_percentile_index_matches_inverted_cdf():
    import numpy

    rng = numpy.random.default_rng(3)
    for n in (1, 2, 5, 19, 20, 21, 100):
        values = sorted(rng.normal(size=n).tolist())
        expected = float(numpy.percentile(values, 95, method="inverted_cdf"))
        assert values[percentile_index(n, 0.95)] == pytest.approx(expected)
