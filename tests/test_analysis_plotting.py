"""Tests for the ASCII plotting helpers."""

from repro.analysis.plotting import ascii_cdf, ascii_series
from repro.analysis.stats import EmpiricalCDF


class TestAsciiCDF:
    def test_empty(self):
        assert ascii_cdf({}) == "(no data)"
        assert ascii_cdf({"x": EmpiricalCDF.from_values([])}) == "(no data)"

    def test_single_curve_shape(self):
        cdf = EmpiricalCDF.from_values(range(100))
        out = ascii_cdf({"uniform": cdf}, width=40, height=10)
        lines = out.splitlines()
        assert lines[0].startswith("1.00 |")
        assert any("uniform" in l for l in lines)
        assert "*" in out

    def test_two_curves_distinct_glyphs(self):
        a = EmpiricalCDF.from_values(range(50))
        b = EmpiricalCDF.from_values(range(25, 75))
        out = ascii_cdf({"a": a, "b": b})
        assert "*" in out and "o" in out

    def test_constant_values_no_crash(self):
        cdf = EmpiricalCDF.from_values([5.0] * 10)
        assert "(no data)" not in ascii_cdf({"c": cdf})


class TestAsciiSeries:
    def test_empty(self):
        assert ascii_series([]) == "(no data)"

    def test_monotone_series(self):
        points = [(float(i), float(i * i)) for i in range(10)]
        out = ascii_series(points, y_label="growth")
        assert "*" in out
        assert "growth" in out

    def test_flat_series_no_crash(self):
        assert "*" in ascii_series([(0.0, 1.0), (1.0, 1.0)])
