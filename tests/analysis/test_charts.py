"""ASCII chart rendering."""

import pytest

from repro.analysis.charts import bar_chart, sparkline


class TestBarChart:
    def test_proportional_bars(self):
        lines = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_labels_aligned_and_values_shown(self):
        lines = bar_chart([("long-name", 3.0), ("x", 1.0)], width=4, unit="K")
        assert lines[0].startswith("long-name |")
        assert lines[1].startswith("        x |")
        assert lines[0].endswith("3K")

    def test_explicit_scale_caps_bars(self):
        lines = bar_chart([("a", 100.0)], width=10, max_value=50)
        assert lines[0].count("#") == 10  # clamped at the scale

    def test_zero_values_render(self):
        lines = bar_chart([("a", 0.0)], width=10)
        assert "#" not in lines[0]

    def test_empty_and_invalid(self):
        assert bar_chart([]) == []
        with pytest.raises(ValueError):
            bar_chart([("a", 1.0)], width=0)
        with pytest.raises(ValueError):
            bar_chart([("a", -1.0)])


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

