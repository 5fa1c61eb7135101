"""Tests for the benchmark harness plumbing."""

import pytest

from repro.bench.harness import (
    budget_for,
    join_algorithm_suite,
    make_environment,
    run_join,
    run_sort,
    sort_algorithm_suite,
)
from repro.pmem.backends import BACKEND_PAPER_ORDER
from repro.sorts import SORT_REGISTRY, ExternalMergeSort
from repro.joins import GraceJoin
from repro.workloads.generator import make_join_inputs, make_sort_input


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

    def test_reset_clears_counters(self):
        env = make_environment()
        env.device.write(640)
        env.reset()
        assert env.device.elapsed_ns == 0

    def test_budget_for_fraction(self):
        env = make_environment()
        collection = make_sort_input(200, env.backend)
        budget = budget_for(collection, 0.1)
        assert budget.nbytes == pytest.approx(collection.nbytes * 0.1)


class TestSuites:
    def test_sort_suite_labels(self):
        suite = sort_algorithm_suite()
        assert set(suite) == {
            "ExMS",
            "LaS",
            "HybS, 20%",
            "HybS, 80%",
            "SegS, 20%",
            "SegS, 80%",
        }

    def test_sort_suite_factories_build_algorithms(self):
        env = make_environment()
        collection = make_sort_input(100, env.backend)
        budget = budget_for(collection, 0.1)
        for factory in sort_algorithm_suite().values():
            algorithm = factory(env.backend, budget)
            assert hasattr(algorithm, "sort")

    def test_join_suite_labels(self):
        suite = join_algorithm_suite(
            hybrid_intensities=((0.5, 0.5),), segmented_intensities=(0.5,)
        )
        assert set(suite) == {
            "NLJ",
            "HJ",
            "GJ",
            "LaJ",
            "SegJ, 50%",
            "HybJ, 50% - 50%",
        }


class TestRunners:
    def test_run_sort_row_contents(self):
        env = make_environment()
        collection = make_sort_input(200, env.backend)
        budget = budget_for(collection, 0.1)
        row = run_sort(
            lambda b, m: ExternalMergeSort(b, m), collection, env.backend, budget
        )
        assert row["algorithm"] == "ExMS"
        assert row["sorted"] is True
        assert row["output_records"] == 200
        assert row["cacheline_writes"] > 0
        assert row["simulated_seconds"] > 0

    def test_run_sort_custom_label(self):
        env = make_environment()
        collection = make_sort_input(100, env.backend)
        budget = budget_for(collection, 0.2)
        row = run_sort(
            lambda b, m: ExternalMergeSort(b, m),
            collection,
            env.backend,
            budget,
            label="custom",
        )
        assert row["algorithm"] == "custom"

    @pytest.mark.parametrize("backend_name", BACKEND_PAPER_ORDER)
    @pytest.mark.parametrize("sort_name", sorted(SORT_REGISTRY))
    def test_run_sort_repeats_and_leaves_only_the_input(
        self, sort_name, backend_name
    ):
        # A sweep runs the same sort over one backend point after point;
        # each point must start from the state the previous one found.
        env = make_environment(backend_name)
        collection = make_sort_input(2000, env.backend)
        budget = budget_for(collection, 0.05)
        stores = env.backend.stores()
        rows = [
            run_sort(SORT_REGISTRY[sort_name], collection, env.backend, budget)
            for _ in range(3)
        ]
        fields = ("cacheline_reads", "cacheline_writes", "simulated_seconds")
        counters = [tuple(row[field] for field in fields) for row in rows]
        assert counters[0] == counters[1] == counters[2]
        assert env.backend.stores() == stores

    def test_run_join_row_contents(self):
        env = make_environment()
        left, right = make_join_inputs(50, 500, env.backend)
        budget = budget_for(left, 0.2)
        row = run_join(lambda b, m: GraceJoin(b, m), left, right, env.backend, budget)
        assert row["algorithm"] == "GJ"
        assert row["matches"] == 500
        assert row["partitions"] >= 1

    def test_run_join_defaults_to_pipelined_output(self):
        env = make_environment()
        left, right = make_join_inputs(50, 500, env.backend)
        budget = budget_for(left, 0.2)
        pipelined = run_join(
            lambda b, m: GraceJoin(b, m), left, right, env.backend, budget
        )
        materialized = run_join(
            lambda b, m: GraceJoin(b, m),
            left,
            right,
            env.backend,
            budget,
            materialize_output=True,
        )
        assert materialized["cacheline_writes"] > pipelined["cacheline_writes"]
