"""Cross-module integration tests."""

import pytest

from repro.bench.harness import make_environment
from repro.joins import GraceJoin, LazyHashJoin, SegmentedGraceJoin
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.context import OperatorContext
from repro.runtime.operators import SegmentedGraceJoinOperator
from repro.sorts import ExternalMergeSort, LazySort, SegmentSort
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_join_inputs, make_sort_input


class TestSortThenJoinPipeline:
    def test_sorted_output_feeds_a_join(self, backend):
        """A sort output is a regular collection and can be joined directly."""
        left = make_sort_input(120, backend, name="pipeline-left")
        budget = MemoryBudget.fraction_of(left, 0.1)
        sorted_left = SegmentSort(backend, budget, write_intensity=0.5).sort(left).output

        _, right = make_join_inputs(120, 1200, backend, left_name="x", right_name="pipeline-right")
        join_budget = MemoryBudget.fraction_of(sorted_left, 0.1)
        result = GraceJoin(backend, join_budget).join(sorted_left, right)
        assert result.matches == 1200

    def test_total_device_time_accumulates_across_operators(self, backend, device):
        collection = make_sort_input(200, backend, name="accumulate")
        budget = MemoryBudget.fraction_of(collection, 0.1)
        first = ExternalMergeSort(backend, budget).sort(collection)
        second = LazySort(backend, budget).sort(collection)
        assert device.elapsed_ns >= first.io.total_ns + second.io.total_ns


class TestBackendConsistency:
    def test_algorithm_io_identical_on_blocked_memory_and_pmfs_transfers(self):
        """Backends change overheads, not the algorithm's transfer volume."""
        results = {}
        for name in ("blocked_memory", "pmfs"):
            device = PersistentMemoryDevice()
            backend = make_backend(name, device)
            collection = make_sort_input(300, backend, name="consistency")
            budget = MemoryBudget.fraction_of(collection, 0.1)
            result = SegmentSort(backend, budget, write_intensity=0.5).sort(collection)
            results[name] = result
        blocked = results["blocked_memory"]
        pmfs = results["pmfs"]
        assert blocked.cacheline_writes == pytest.approx(pmfs.cacheline_writes)
        assert blocked.cacheline_reads == pytest.approx(pmfs.cacheline_reads)
        assert pmfs.io.overhead_ns > blocked.io.overhead_ns

    def test_dynamic_array_amplifies_writes_for_the_same_sort(self):
        """Figure 6's point: the backend alone can double the write volume."""
        writes = {}
        for name in ("blocked_memory", "dynamic_array"):
            device = PersistentMemoryDevice()
            backend = make_backend(name, device)
            collection = make_sort_input(300, backend, name="amplify")
            budget = MemoryBudget.fraction_of(collection, 0.1)
            before = device.snapshot()
            ExternalMergeSort(backend, budget).sort(collection)
            writes[name] = (device.snapshot() - before).cacheline_writes
        assert writes["dynamic_array"] > writes["blocked_memory"]


class TestRuntimeVersusStaticAlgorithms:
    def test_runtime_sgj_matches_static_segmented_grace(self, backend):
        left, right = make_join_inputs(100, 1000, backend, left_name="rt-L", right_name="rt-R")
        budget = MemoryBudget.from_records(25)
        static = SegmentedGraceJoin(
            backend, budget, write_intensity=0.5, materialize_output=False
        ).join(left, right)

        context = OperatorContext(backend)
        operator = SegmentedGraceJoinOperator(
            context, left, right, num_partitions=4, materialize_output=False
        )
        runtime_output = operator.evaluate()
        assert sorted(runtime_output.records) == sorted(static.output.records)


class TestDeviceLevelInvariants:
    def test_wear_is_spread_across_collections(self, backend, device):
        """Different collections land on different stores; the device's wear
        accounting never decreases."""
        collection = make_sort_input(200, backend, name="wear")
        budget = MemoryBudget.fraction_of(collection, 0.1)
        before = device.counters.cacheline_writes
        ExternalMergeSort(backend, budget).sort(collection)
        assert device.counters.cacheline_writes >= before

    def test_lambda_sweep_preserves_write_counts_for_static_algorithms(self):
        """Changing the latency changes time but not the cacheline counts of
        algorithms whose plan does not depend on lambda (SegS at a fixed
        write intensity).  Lazy algorithms legitimately adapt their plan."""
        counts = []
        for write_ns in (50.0, 150.0, 300.0):
            env = make_environment(write_ns=write_ns)
            collection = make_sort_input(250, env.backend, name="lat")
            budget = MemoryBudget.fraction_of(collection, 0.1)
            result = SegmentSort(env.backend, budget, write_intensity=0.5).sort(
                collection
            )
            counts.append((result.cacheline_reads, result.cacheline_writes))
        assert counts[0] == pytest.approx(counts[1])
        assert counts[1] == pytest.approx(counts[2])

    def test_lazy_sort_adapts_its_plan_to_lambda(self):
        """Eq. 5: a higher write/read ratio postpones materialization, so the
        lazy sort writes less (and reads more) as lambda grows."""
        profiles = {}
        for write_ns in (20.0, 300.0):
            env = make_environment(write_ns=write_ns)
            collection = make_sort_input(250, env.backend, name="adaptive")
            budget = MemoryBudget.fraction_of(collection, 0.05)
            result = LazySort(env.backend, budget).sort(collection)
            profiles[write_ns] = result
        assert (
            profiles[300.0].cacheline_writes <= profiles[20.0].cacheline_writes
        )
        assert profiles[300.0].cacheline_reads >= profiles[20.0].cacheline_reads

    def test_lazy_join_write_advantage_grows_with_lambda(self):
        """The relative benefit of laziness tracks the device asymmetry."""
        gaps = []
        for write_ns in (20.0, 300.0):
            env = make_environment(write_ns=write_ns)
            left, right = make_join_inputs(120, 1200, env.backend)
            budget = MemoryBudget.fraction_of(left, 0.08)
            lazy = LazyHashJoin(env.backend, budget, materialize_output=False).join(
                left, right
            )
            grace = GraceJoin(env.backend, budget, materialize_output=False).join(
                left, right
            )
            gaps.append(grace.io.total_ns - lazy.io.total_ns)
        assert gaps[1] > gaps[0]
