"""Tests for the result formatting helpers."""

from repro.analysis.heatmap import hybrid_cost_surface
from repro.bench.reporting import format_series, format_surface, format_table


ROWS = [
    {"algorithm": "GJ", "memory_fraction": 0.05, "simulated_seconds": 1.25, "sorted": True},
    {"algorithm": "GJ", "memory_fraction": 0.10, "simulated_seconds": 1.20, "sorted": True},
    {"algorithm": "LaJ", "memory_fraction": 0.05, "simulated_seconds": 2.5, "sorted": False},
]


class TestFormatTable:
    def test_contains_header_and_rows(self):
        text = format_table(ROWS, ["algorithm", "simulated_seconds"], title="demo")
        assert "demo" in text
        assert "algorithm" in text
        assert "GJ" in text and "LaJ" in text
        assert len(text.splitlines()) == 3 + len(ROWS)

    def test_missing_column_renders_empty(self):
        text = format_table(ROWS, ["algorithm", "not-a-column"])
        assert "not-a-column" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], ["a"], title="empty")

    def test_boolean_formatting(self):
        text = format_table(ROWS, ["sorted"])
        assert "yes" in text and "no" in text

    def test_large_and_small_floats_use_compact_form(self):
        rows = [{"value": 123456.789}, {"value": 0.00042}]
        text = format_table(rows, ["value"])
        assert "1.23e+05" in text
        assert "0.00042" in text


class TestFormatSeries:
    def test_one_line_per_group(self):
        text = format_series(ROWS, "memory_fraction", "simulated_seconds")
        lines = text.splitlines()
        assert any(line.startswith("GJ:") for line in lines)
        assert any(line.startswith("LaJ:") for line in lines)

    def test_points_in_order(self):
        text = format_series(ROWS, "memory_fraction", "simulated_seconds", title="t")
        gj_line = next(line for line in text.splitlines() if line.startswith("GJ:"))
        assert gj_line.index("0.050") < gj_line.index("0.100")


class TestFormatSurface:
    def test_renders_one_row_per_y_value(self):
        surface = hybrid_cost_surface(size_ratio=10.0, lam=5.0, grid_points=7)
        text = format_surface(surface)
        assert len(text.splitlines()) == 1 + 7
        assert "lambda = 5" in text
