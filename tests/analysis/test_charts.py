"""ASCII chart rendering."""

from repro.analysis.charts import sparkline


class TestSparkline:
    def test_monotone_series_uses_increasing_glyphs(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        assert line[0] == " " and line[-1] == "@"
        assert len(line) == 10

    def test_flat_series_renders_full(self):
        assert sparkline([5, 5, 5]) == "@@@"

    def test_explicit_bounds_clamp(self):
        line = sparkline([100, -100], lo=0, hi=10)
        assert line == "@ "

    def test_empty(self):
        assert sparkline([]) == ""

