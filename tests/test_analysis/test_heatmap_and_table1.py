"""Tests for the Figure 2 cost surface and the Table 1 progression."""

import pytest

from repro.analysis.heatmap import hybrid_cost_surface
from repro.analysis.table1 import crossover_iteration, lazy_hash_progression
from repro.bench import experiments
from repro.exceptions import ConfigurationError


class TestHybridCostSurface:
    def test_grid_shape_and_normalization(self):
        surface = hybrid_cost_surface(size_ratio=10.0, lam=5.0, grid_points=11)
        assert len(surface.x_values) == 11
        assert len(surface.normalized) == 11
        flat = [value for row in surface.normalized for value in row]
        assert min(flat) == pytest.approx(0.0)
        assert max(flat) == pytest.approx(1.0)

    def test_equal_inputs_low_lambda_favours_grace(self):
        """Figure 2, top-left: similar sizes and mild asymmetry -> Grace."""
        surface = hybrid_cost_surface(size_ratio=1.0, lam=2.0, grid_points=21)
        assert surface.value_at(1.0, 1.0) < surface.value_at(0.0, 0.0)

    def test_lambda_shifts_advantage_toward_nested_loops(self):
        """Figure 2 reading: as lambda grows, the full-Grace corner loses
        ground relative to the read-only nested-loops corner."""
        from repro.joins.cost import hybrid_join_cost

        t = v = 10_000.0
        m = 1_000.0
        gap_mild = hybrid_join_cost(0, 0, t, v, m, 1.0, 2.0) - hybrid_join_cost(
            1, 1, t, v, m, 1.0, 2.0
        )
        gap_harsh = hybrid_join_cost(0, 0, t, v, m, 1.0, 8.0) - hybrid_join_cost(
            1, 1, t, v, m, 1.0, 8.0
        )
        assert gap_harsh < gap_mild

    def test_higher_lambda_penalizes_grace_corner(self):
        mild = hybrid_cost_surface(size_ratio=10.0, lam=2.0, grid_points=11)
        harsh = hybrid_cost_surface(size_ratio=10.0, lam=8.0, grid_points=11)
        assert harsh.value_at(1.0, 1.0) >= mild.value_at(1.0, 1.0)

    def test_minimum_cell_is_consistent(self):
        surface = hybrid_cost_surface(size_ratio=10.0, lam=5.0, grid_points=11)
        best_x, best_y = surface.minimum_cell()
        assert surface.value_at(best_x, best_y) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hybrid_cost_surface(size_ratio=0.5, lam=2.0)
        with pytest.raises(ConfigurationError):
            hybrid_cost_surface(size_ratio=1.0, lam=2.0, grid_points=1)

    def test_figure2_has_nine_panels(self):
        panels = [
            row["surface"]
            for row in experiments.hybrid_cost_surfaces(grid_points=5)
        ]
        assert len(panels) == 9
        assert {(p.size_ratio, p.lam) for p in panels} == {
            (ratio, lam) for ratio in (1.0, 10.0, 100.0) for lam in (2.0, 5.0, 8.0)
        }


class TestTable1:
    def test_row_count_matches_iterations(self):
        rows = lazy_hash_progression(8, 1000.0, 10_000.0, lam=15.0)
        assert len(rows) == 8
        assert [row.iteration for row in rows] == list(range(1, 9))

    def test_first_row_matches_paper_formulas(self):
        rows = lazy_hash_progression(8, 1000.0, 10_000.0, lam=15.0)
        first = rows[0]
        per_iteration = 11_000.0
        assert first.standard_reads == pytest.approx(8 * per_iteration)
        assert first.standard_writes == pytest.approx(7 * per_iteration)
        assert first.lazy_reads == pytest.approx(8 * per_iteration)
        assert first.lazy_writes == 0.0
        assert first.savings == pytest.approx(7 * per_iteration * 15.0)
        assert first.penalty == 0.0

    def test_standard_io_shrinks_while_lazy_reads_stay_flat(self):
        rows = lazy_hash_progression(6, 500.0, 5_000.0, lam=15.0)
        standard_reads = [row.standard_reads for row in rows]
        lazy_reads = [row.lazy_reads for row in rows]
        assert standard_reads == sorted(standard_reads, reverse=True)
        assert len(set(lazy_reads)) == 1

    def test_savings_decrease_and_penalty_increases(self):
        rows = lazy_hash_progression(6, 500.0, 5_000.0, lam=15.0)
        savings = [row.savings for row in rows]
        penalties = [row.penalty for row in rows]
        assert savings == sorted(savings, reverse=True)
        assert penalties == sorted(penalties)

    def test_crossover_matches_corrected_eq11(self):
        """Penalty overtakes savings right after k·lambda/(lambda+1) iterations."""
        k, lam = 20, 3.0
        rows = lazy_hash_progression(k, 100.0, 1000.0, lam=lam)
        crossover = crossover_iteration(rows)
        assert crossover is not None
        threshold = k * lam / (lam + 1.0)
        assert crossover == pytest.approx(threshold + 1, abs=1.0)

    def test_large_lambda_keeps_lazy_ahead_until_the_last_iteration(self):
        """With lambda far above k the penalty only wins when no savings are
        left, i.e. in the very last iteration."""
        rows = lazy_hash_progression(4, 100.0, 1000.0, lam=50.0)
        assert crossover_iteration(rows) == 4
        assert all(row.net_benefit > 0 for row in rows[:-1])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lazy_hash_progression(0, 1.0, 1.0, lam=2.0)
        with pytest.raises(ConfigurationError):
            lazy_hash_progression(5, -1.0, 1.0, lam=2.0)
        with pytest.raises(ConfigurationError):
            lazy_hash_progression(5, 1.0, 1.0, lam=0.0)
