"""Tests for the benchmark harness plumbing and the figures' line-ups."""

import re

import pytest

from repro.bench import experiments
from repro.bench.harness import make_environment, run_join, run_sort
from repro.pmem.backends import BACKEND_PAPER_ORDER
from repro.query import SORT_ALTERNATIVES
from repro.sorts import ExternalMergeSort, SelectionSort
from repro.joins import GraceJoin
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_join_inputs, make_sort_input

#: Every sort: the planner's alternatives, and selection sort.
SORTS = {**SORT_ALTERNATIVES, "SelS": SelectionSort}

#: Every line-up a figure runs, by name.
LINE_UPS = {
    "SORT_LINE_UP": experiments.SORT_LINE_UP,
    "JOIN_LINE_UP": experiments.JOIN_LINE_UP,
    "BACKEND_JOIN_LINE_UP": experiments.BACKEND_JOIN_LINE_UP,
    "SORT_INTENSITY_LINE_UP": experiments.SORT_INTENSITY_LINE_UP,
    "LATENCY_SORT_LINE_UP": experiments.LATENCY_SORT_LINE_UP,
    "LATENCY_JOIN_LINE_UP": experiments.LATENCY_JOIN_LINE_UP,
    **{
        f"VALIDATION_LINE_UPS[{operation}]": line_up
        for operation, line_up in experiments.VALIDATION_LINE_UPS.items()
    },
}


def build_line_up(line_up):
    """Each entry of ``line_up`` built over a fresh backend, by label."""
    env = make_environment()
    budget = MemoryBudget.from_records(20)
    return {label: build(env.backend, budget) for label, build in line_up.items()}


def intensities(algorithm) -> tuple:
    """The write intensities a built algorithm carries, as percentages."""
    names = ("write_intensity", "left_intensity", "right_intensity")
    return tuple(
        int(round(getattr(algorithm, name) * 100))
        for name in names
        if hasattr(algorithm, name)
    )


class TestEnvironment:
    def test_default_environment_matches_paper_latencies(self):
        env = make_environment()
        assert env.backend_name == "blocked_memory"
        assert env.device.latency.read_ns == 10.0
        assert env.device.latency.write_ns == 150.0

    def test_custom_write_latency(self):
        env = make_environment(write_ns=200.0)
        assert env.device.write_read_ratio == pytest.approx(20.0)

    def test_every_backend_can_be_selected(self):
        for name in ("blocked_memory", "dynamic_array", "ramdisk", "pmfs"):
            assert make_environment(name).backend.name == name


class TestLineUps:
    def test_sort_line_up_labels(self):
        assert list(experiments.SORT_LINE_UP) == [
            "ExMS",
            "LaS",
            "HybS, 20%",
            "SegS, 20%",
            "HybS, 80%",
            "SegS, 80%",
        ]

    @pytest.mark.parametrize("name", sorted(LINE_UPS))
    def test_entries_build_algorithms(self, name):
        for algorithm in build_line_up(LINE_UPS[name]).values():
            assert hasattr(algorithm, "sort") or hasattr(algorithm, "join")

    def test_backend_join_line_up_labels(self):
        assert list(experiments.BACKEND_JOIN_LINE_UP) == [
            "NLJ",
            "HJ",
            "GJ",
            "LaJ",
            "SegJ, 50%",
            "HybJ, 50% - 50%",
        ]

    @pytest.mark.parametrize("name", sorted(LINE_UPS))
    def test_each_label_names_what_its_entry_builds(self, name):
        # "SegS, 20%" builds SegS at write_intensity=0.2, "HybJ, 50% - 20%"
        # HybJ at (0.5, 0.2), "HybJ-50-50" HybJ at (0.5, 0.5); "ExMS" no
        # intensity at all.
        for label, algorithm in build_line_up(LINE_UPS[name]).items():
            algorithm_name = re.split(r"[,-]", label)[0]
            percentages = tuple(int(value) for value in re.findall(r"\d+", label))
            assert (algorithm.short_name, intensities(algorithm)) == (
                algorithm_name,
                percentages,
            ), label

    def test_figure12_write_limited_scope(self):
        """Figure 12's write-limited scope is exactly the paper's four
        write-limited proposals; the lazy ones are not in its line-ups."""
        write_limited = {
            algorithm.short_name
            for line_up in experiments.VALIDATION_LINE_UPS.values()
            for algorithm in build_line_up(line_up).values()
            if algorithm.write_limited
        }
        assert write_limited == {"SegS", "HybS", "SegJ", "HybJ"}


class TestRunners:
    def test_run_sort_row_contents(self):
        env = make_environment()
        collection = make_sort_input(200, env.backend)
        budget = MemoryBudget.fraction_of(collection, 0.1)
        row = run_sort(ExternalMergeSort(env.backend, budget), collection)
        assert row["algorithm"] == "ExMS"
        assert row["sorted"] is True
        assert row["output_records"] == 200
        assert row["cacheline_writes"] > 0
        assert row["simulated_seconds"] > 0

    def test_run_sort_custom_label(self):
        env = make_environment()
        collection = make_sort_input(100, env.backend)
        budget = MemoryBudget.fraction_of(collection, 0.2)
        row = run_sort(
            ExternalMergeSort(env.backend, budget), collection, label="custom"
        )
        assert row["algorithm"] == "custom"

    def test_rows_report_the_memory_fraction_of_the_input(self):
        env = make_environment()
        collection = make_sort_input(200, env.backend)
        budget = MemoryBudget.fraction_of(collection, 0.1)
        row = run_sort(ExternalMergeSort(env.backend, budget), collection)
        assert row["memory_fraction"] == pytest.approx(0.1)

    @pytest.mark.parametrize("backend_name", BACKEND_PAPER_ORDER)
    def test_rows_report_the_handed_algorithms_backend_and_budget(
        self, backend_name
    ):
        env = make_environment(backend_name)
        collection = make_sort_input(200, env.backend)
        left, right = make_join_inputs(50, 500, env.backend)
        budget = MemoryBudget.from_records(37)
        sort_row = run_sort(ExternalMergeSort(env.backend, budget), collection)
        join_row = run_join(
            GraceJoin(env.backend, budget, materialize_output=False), left, right
        )
        for row in (sort_row, join_row):
            assert row["backend"] == backend_name
            assert row["memory_bytes"] == budget.nbytes

    @pytest.mark.parametrize("backend_name", BACKEND_PAPER_ORDER)
    @pytest.mark.parametrize("sort_name", sorted(SORTS))
    def test_run_sort_repeats_and_leaves_only_the_input(
        self, sort_name, backend_name
    ):
        # A sweep runs the same sort over one backend point after point;
        # each point must start from the state the previous one found.
        env = make_environment(backend_name)
        collection = make_sort_input(2000, env.backend)
        budget = MemoryBudget.fraction_of(collection, 0.05)
        stores = env.backend.stores()
        rows = [
            run_sort(SORTS[sort_name](env.backend, budget), collection)
            for _ in range(3)
        ]
        fields = ("cacheline_reads", "cacheline_writes", "simulated_seconds")
        counters = [tuple(row[field] for field in fields) for row in rows]
        assert counters[0] == counters[1] == counters[2]
        assert env.backend.stores() == stores

    def test_run_join_row_contents(self):
        env = make_environment()
        left, right = make_join_inputs(50, 500, env.backend)
        budget = MemoryBudget.fraction_of(left, 0.2)
        row = run_join(
            GraceJoin(env.backend, budget, materialize_output=False), left, right
        )
        assert row["algorithm"] == "GJ"
        assert row["matches"] == 500
        assert row["partitions"] >= 1
