"""Tests for the per-figure experiment definitions (at reduced scale)."""

import pytest

from repro.bench import experiments
from repro.bench.harness import make_environment
from repro.pmem.latency import LatencyModel


class TestAnalyticalExperiments:
    def test_figure2_panel_summary(self):
        rows = experiments.hybrid_cost_surfaces(grid_points=5)
        assert len(rows) == 9
        for row in rows:
            assert 0.0 <= row["best_x"] <= 1.0
            assert 0.0 <= row["best_y"] <= 1.0
            assert row["surface"].normalized

    def test_table1_rows(self):
        rows = experiments.lazy_hash_table1(num_partitions=6)
        assert len(rows) == 6
        assert rows[0]["lazy_writes"] == 0.0
        assert rows[0]["savings"] > rows[-1]["savings"]


class TestSortExperiments:
    def test_memory_sweep_structure(self):
        rows = experiments.sort_memory_sweep(
            num_records=500, memory_fractions=(0.05, 0.15)
        )
        algorithms = {row["algorithm"] for row in rows}
        assert algorithms == {
            "ExMS", "LaS", "HybS, 20%", "HybS, 80%", "SegS, 20%", "SegS, 80%",
        }
        assert len(rows) == 2 * len(algorithms)
        assert all(row["sorted"] for row in rows)

    def test_memory_sweep_trends(self):
        """More memory never makes the write-limited sorts slower."""
        rows = experiments.sort_memory_sweep(
            num_records=600, memory_fractions=(0.03, 0.15)
        )
        by_algorithm = {}
        for row in rows:
            by_algorithm.setdefault(row["algorithm"], []).append(row)
        for algorithm_rows in by_algorithm.values():
            ordered = sorted(algorithm_rows, key=lambda r: r["memory_fraction"])
            assert ordered[-1]["simulated_seconds"] <= ordered[0]["simulated_seconds"] * 1.05

    def test_backend_comparison_covers_all_backends(self):
        rows = experiments.sort_backend_comparison(
            num_records=300, memory_fractions=(0.1,)
        )
        assert {row["backend"] for row in rows} == {
            "blocked_memory",
            "dynamic_array",
            "ramdisk",
            "pmfs",
        }

    def test_backend_comparison_blocked_memory_is_fastest(self):
        rows = experiments.sort_backend_comparison(
            num_records=300, memory_fractions=(0.1,)
        )
        exms = [row for row in rows if row["algorithm"] == "ExMS"]
        fastest = min(exms, key=lambda r: r["simulated_seconds"])
        assert fastest["backend"] == "blocked_memory"

    def test_write_intensity_sweep(self):
        rows = experiments.sort_write_intensity(
            num_records=400, backends=("blocked_memory",)
        )
        labels = {row["algorithm"] for row in rows}
        assert labels == {
            f"{name}, {percent}%"
            for name in ("SegS", "HybS")
            for percent in (10, 30, 50, 70, 90)
        }

    def test_writes_reads_summary(self):
        rows = experiments.sort_memory_sweep(
            num_records=400, memory_fractions=(0.05, 0.15)
        )
        summary = experiments.writes_reads_summary(rows)
        assert {entry["algorithm"] for entry in summary} == {
            row["algorithm"] for row in rows
        }
        for entry in summary:
            assert entry["min_writes"] <= entry["max_writes"]


class TestJoinExperiments:
    def test_memory_sweep_structure(self):
        rows = experiments.join_memory_sweep(
            left_records=150,
            right_records=1500,
            memory_fractions=(0.05, 0.15),
            hybrid_intensities=((0.5, 0.5),),
            segmented_intensities=(0.5,),
        )
        assert {row["algorithm"] for row in rows} == {
            "NLJ",
            "HJ",
            "GJ",
            "LaJ",
            "SegJ, 50%",
            "HybJ, 50% - 50%",
        }
        assert all(row["matches"] == 1500 for row in rows)

    def test_paper_write_ordering_holds(self):
        """HJ writes the most; the write-limited joins write less than GJ."""
        rows = experiments.join_memory_sweep(
            left_records=150,
            right_records=1500,
            memory_fractions=(0.08,),
            hybrid_intensities=((0.5, 0.5),),
            segmented_intensities=(0.5,),
        )
        writes = {row["algorithm"]: row["cacheline_writes"] for row in rows}
        assert writes["HJ"] > writes["GJ"]
        assert writes["NLJ"] == 0
        for label in ("LaJ", "SegJ, 50%", "HybJ, 50% - 50%"):
            assert writes[label] < writes["GJ"]

    def test_write_intensity_sweep(self):
        rows = experiments.join_write_intensity(left_records=120, right_records=1200)
        labels = {row["algorithm"] for row in rows}
        assert "SegJ, 10%" in labels and "SegJ, 90%" in labels
        assert "HybJ, x - 50%" in labels and "HybJ, 50% - x" in labels


class TestSensitivityAndValidation:
    def test_latency_sensitivity_sweeps_the_papers_write_latencies(self):
        """Figure 11 sweeps writes over 50-200 ns on the default 10 ns reads."""
        assert experiments.WRITE_LATENCIES_NS == (50.0, 100.0, 150.0, 200.0)
        # Each sweep point's device, as latency_sensitivity builds it.
        device = make_environment(write_ns=50.0).device
        assert device.latency == LatencyModel(read_ns=10.0, write_ns=50.0)

    def test_latency_sensitivity_rows(self):
        rows = experiments.latency_sensitivity(
            num_sort_records=300,
            join_left_records=100,
            join_right_records=1000,
        )
        assert {row["write_latency_ns"] for row in rows} == {50.0, 100.0, 150.0, 200.0}
        assert {row["operation"] for row in rows} == {"sort", "join"}

    def test_write_limited_resilience_to_write_latency(self):
        """Figure 11: higher write latency barely moves the lazy algorithms."""
        rows = experiments.latency_sensitivity(
            num_sort_records=300,
            join_left_records=100,
            join_right_records=1000,
        )
        by_algorithm = {}
        for row in rows:
            by_algorithm.setdefault(row["algorithm"], []).append(row)
        slowdowns = {}
        for label, algorithm_rows in by_algorithm.items():
            ordered = sorted(algorithm_rows, key=lambda r: r["write_latency_ns"])
            slowdowns[label] = (
                ordered[-1]["simulated_seconds"] / ordered[0]["simulated_seconds"]
            )
        # A 4x write-latency increase always costs well under 4x in response
        # time, and the most read-heavy algorithm (LaS) barely notices it.
        assert all(value < 3.8 for value in slowdowns.values())
        assert slowdowns["LaS"] < 2.5

    def test_cost_model_validation_high_concordance(self):
        """Figure 12: estimated and measured rankings agree strongly."""
        rows = experiments.cost_model_validation(
            num_sort_records=400,
            join_left_records=120,
            join_right_records=1200,
            memory_fractions=(0.08, 0.15),
        )
        assert {row["operation"] for row in rows} == {"sort", "join"}
        assert {row["scope"] for row in rows} == {"all", "write-limited"}
        for row in rows:
            assert row["kendall_tau"] >= 0.3
        mean_tau = sum(row["kendall_tau"] for row in rows) / len(rows)
        assert mean_tau >= 0.6

    def test_cost_model_validation_rows_do_not_depend_on_run_order(self):
        """Each memory fraction's rows are the same alone as inside the
        sweep: no run writes into the store of an earlier run's output,
        which on ``dynamic_array`` would charge a longer doubling copy."""
        sizes = dict(
            num_sort_records=1000,
            join_left_records=200,
            join_right_records=2000,
            backend_name="dynamic_array",
        )
        sweep = experiments.cost_model_validation(**sizes)
        for fraction in experiments.DEFAULT_MEMORY_FRACTIONS:
            alone = experiments.cost_model_validation(
                memory_fractions=(fraction,), **sizes
            )
            assert alone == [
                row for row in sweep if row["memory_fraction"] == fraction
            ]

    def test_cost_model_validation_drops_every_sort_output(self, monkeypatch):
        """Figure 12 drops each sort's output once it is measured: the
        backend ends holding only the three input stores, and the rows
        are those the sweep gave while it kept every output."""
        environments = []

        def capture(*args, **kwargs):
            environments.append(make_environment(*args, **kwargs))
            return environments[-1]

        monkeypatch.setattr(experiments, "make_environment", capture)
        rows = experiments.cost_model_validation(
            num_sort_records=400,
            join_left_records=100,
            join_right_records=1000,
            memory_fractions=(0.02, 0.05),
            backend_name="dynamic_array",
        )
        (env,) = environments
        stores = env.backend.stores()
        assert [store.label for store in stores] == ["T", "T", "V"]
        assert env.device.allocated_bytes == sum(
            store.physical_bytes for store in stores
        )
        taus = [
            (row["operation"], row["scope"], row["memory_fraction"], row["kendall_tau"])
            for row in rows
        ]
        assert taus == [
            ("sort", "all", 0.02, 0.0),
            ("sort", "write-limited", 0.02, 0.0),
            ("join", "all", 0.02, 0.6),
            ("join", "write-limited", 0.02, 1.0),
            ("sort", "all", 0.05, 0.6),
            ("sort", "write-limited", 0.05, pytest.approx(2 / 3)),
            ("join", "all", 0.05, 0.4),
            # SegJ-50's 25 partitions over 100 keys include empty ones,
            # which it never rescans: it measures below HybJ-50-50, as
            # priced.
            ("join", "write-limited", 0.05, 1.0),
        ]
