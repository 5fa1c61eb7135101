"""Correctness and configuration tests for the five sorting algorithms."""

import pytest

from repro.exceptions import ConfigurationError
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.sorts import (
    ExternalMergeSort,
    HybridSort,
    LazySort,
    SegmentSort,
    SelectionSort,
)
from repro.query import SORT_ALTERNATIVES
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.workloads.generator import make_sort_input

from tests.conftest import build_collection

ALL_SORTS = [
    (ExternalMergeSort, {}),
    (SelectionSort, {}),
    (SegmentSort, {"write_intensity": 0.3}),
    (SegmentSort, {"write_intensity": 0.0}),
    (SegmentSort, {"write_intensity": 1.0}),
    (SegmentSort, {}),  # optimal intensity
    (HybridSort, {"write_intensity": 0.2}),
    (HybridSort, {"write_intensity": 0.8}),
    (LazySort, {}),
]


def sort_ids(param):
    cls, kwargs = param
    suffix = ",".join(f"{k}={v}" for k, v in kwargs.items())
    return f"{cls.__name__}({suffix})"


@pytest.fixture(params=ALL_SORTS, ids=[sort_ids(p) for p in ALL_SORTS])
def sort_case(request):
    return request.param


class TestCorrectness:
    def test_sorts_wisconsin_input(self, sort_case, backend, small_sort_input, sort_budget):
        cls, kwargs = sort_case
        result = cls(backend, sort_budget, **kwargs).sort(small_sort_input)
        assert [r[0] for r in result.output.records] == sorted(small_sort_input.keys())

    def test_output_preserves_full_records(self, sort_case, backend, small_sort_input, sort_budget):
        cls, kwargs = sort_case
        result = cls(backend, sort_budget, **kwargs).sort(small_sort_input)
        assert sorted(result.output.records) == sorted(small_sort_input.records)

    def test_handles_duplicate_keys(self, sort_case, backend):
        cls, kwargs = sort_case
        keys = [5, 1, 5, 3, 1, 5, 2, 2, 4, 5, 0, 3] * 10
        collection = build_collection(backend, keys, name=f"dups-{cls.__name__}")
        budget = MemoryBudget.from_records(8)
        result = cls(backend, budget, **kwargs).sort(collection)
        assert [r[0] for r in result.output.records] == sorted(keys)

    def test_handles_already_sorted_input(self, sort_case, backend):
        cls, kwargs = sort_case
        collection = build_collection(backend, range(100), name=f"asc-{cls.__name__}")
        budget = MemoryBudget.from_records(10)
        result = cls(backend, budget, **kwargs).sort(collection)
        assert [r[0] for r in result.output.records] == list(range(100))

    def test_handles_reverse_sorted_input(self, sort_case, backend):
        cls, kwargs = sort_case
        collection = build_collection(
            backend, range(99, -1, -1), name=f"desc-{cls.__name__}"
        )
        budget = MemoryBudget.from_records(10)
        result = cls(backend, budget, **kwargs).sort(collection)
        assert [r[0] for r in result.output.records] == list(range(100))

    def test_handles_empty_input(self, sort_case, backend):
        cls, kwargs = sort_case
        collection = build_collection(backend, [], name=f"empty-{cls.__name__}")
        budget = MemoryBudget.from_records(10)
        result = cls(backend, budget, **kwargs).sort(collection)
        assert result.output.records == []

    def test_handles_single_record(self, sort_case, backend):
        cls, kwargs = sort_case
        collection = build_collection(backend, [7], name=f"one-{cls.__name__}")
        budget = MemoryBudget.from_records(10)
        result = cls(backend, budget, **kwargs).sort(collection)
        assert [r[0] for r in result.output.records] == [7]

    def test_input_unchanged_by_sorting(self, sort_case, backend, small_sort_input, sort_budget):
        cls, kwargs = sort_case
        before = list(small_sort_input.records)
        cls(backend, sort_budget, **kwargs).sort(small_sort_input)
        assert small_sort_input.records == before

    def test_works_on_every_backend(self, sort_case, any_backend):
        cls, kwargs = sort_case
        collection = build_collection(
            any_backend, [13, 2, 9, 4, 11, 0, 7] * 20, name="backend-input"
        )
        budget = MemoryBudget.from_records(12)
        result = cls(any_backend, budget, **kwargs).sort(collection)
        assert [r[0] for r in result.output.records] == sorted(collection.keys())


class TestResultMetadata:
    def test_io_snapshot_attached(self, backend, small_sort_input, sort_budget):
        result = ExternalMergeSort(backend, sort_budget).sort(small_sort_input)
        assert result.io.total_ns > 0
        assert result.simulated_seconds == pytest.approx(result.io.total_ns / 1e9)

    def test_exms_reports_runs_and_passes(self, backend, small_sort_input, sort_budget):
        result = ExternalMergeSort(backend, sort_budget).sort(small_sort_input)
        assert result.runs_generated >= 1
        assert result.merge_passes >= 1
        assert result.input_scans == 1

    def test_selection_sort_reports_scans(self, backend, small_sort_input, sort_budget):
        result = SelectionSort(backend, sort_budget).sort(small_sort_input)
        expected_passes = -(-len(small_sort_input) // sort_budget.record_capacity())
        assert result.input_scans == expected_passes
        assert result.runs_generated == 0

    def test_segment_sort_records_intensity(self, backend, small_sort_input, sort_budget):
        result = SegmentSort(backend, sort_budget, write_intensity=0.4).sort(
            small_sort_input
        )
        assert result.details["write_intensity"] == pytest.approx(0.4)
        assert result.details["boundary"] == int(round(len(small_sort_input) * 0.4))

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
    def test_segment_sort_at_zero_intensity_is_selection_sort(self, backend_name):
        """With no mergesort segment SegS reads only its selection passes."""
        results = []
        for algorithm_class, kwargs in (
            (SegmentSort, {"write_intensity": 0.0}),
            (SelectionSort, {}),
        ):
            backend = make_backend(backend_name, PersistentMemoryDevice())
            collection = make_sort_input(300, backend, name="sort-input")
            budget = MemoryBudget.from_records(24)
            results.append(algorithm_class(backend, budget, **kwargs).sort(collection))
        segment, selection = results
        assert segment.io == selection.io
        assert segment.input_scans == selection.input_scans == 13
        assert segment.output.records == selection.output.records

    def test_lazy_sort_records_materializations(self, backend, small_sort_input):
        budget = MemoryBudget.fraction_of(small_sort_input, 0.03)
        result = LazySort(backend, budget).sort(small_sort_input)
        assert result.details["intermediate_materializations"] >= 1
        assert result.input_scans > 1

    def test_hybrid_sort_records_region_capacities(self, backend, small_sort_input, sort_budget):
        result = HybridSort(backend, sort_budget, write_intensity=0.25).sort(
            small_sort_input
        )
        details = result.details
        assert details["selection_capacity"] + details["replacement_capacity"] <= (
            sort_budget.record_capacity() + 1
        )


class TestConfiguration:
    def test_registry_contains_paper_abbreviations(self):
        # Selection sort is segment sort at x = 0, so the planner prices
        # SegS instead.
        assert set(SORT_ALTERNATIVES) == {"ExMS", "SegS", "HybS", "LaS"}

    def test_write_limited_flags(self):
        assert not ExternalMergeSort.write_limited
        assert SegmentSort.write_limited
        assert HybridSort.write_limited
        assert LazySort.write_limited

    def test_segment_intensity_validation(self, backend, sort_budget):
        with pytest.raises(ConfigurationError):
            SegmentSort(backend, sort_budget, write_intensity=1.5)

    def test_hybrid_intensity_validation(self, backend, sort_budget):
        with pytest.raises(ConfigurationError):
            HybridSort(backend, sort_budget, write_intensity=0.0)
        with pytest.raises(ConfigurationError):
            HybridSort(backend, sort_budget, write_intensity=1.0)

    def test_mismatched_schema_rejected(self, backend, sort_budget):
        from repro.storage.schema import Schema

        odd_schema = Schema(num_fields=2, field_bytes=4)
        collection = PersistentCollection(
            name="odd", backend=backend, schema=odd_schema
        )
        collection.extend([odd_schema.make_record(1)])
        with pytest.raises(ConfigurationError):
            ExternalMergeSort(backend, sort_budget).sort(collection)

    def test_pipelined_output_is_memory_resident(self, backend, small_sort_input, sort_budget):
        algorithm = ExternalMergeSort(
            backend, sort_budget, materialize_output=False
        )
        result = algorithm.sort(small_sort_input)
        assert result.output.status is CollectionStatus.MEMORY

    def test_estimated_cost_positive(self, backend, small_sort_input, sort_budget):
        for cls, kwargs in ALL_SORTS:
            algorithm = cls(backend, sort_budget, **kwargs)
            if isinstance(algorithm, SelectionSort):
                continue
            assert algorithm.estimated_cost_ns(small_sort_input.num_buffers) > 0

    def test_segment_resolves_optimal_intensity(self, backend, small_sort_input, sort_budget):
        algorithm = SegmentSort(backend, sort_budget)
        intensity = algorithm.resolve_intensity(small_sort_input.num_buffers)
        assert 0.0 < intensity < 1.0


class TestWorkspaceRegistration:
    """Sorts register their DRAM workspace against the bufferpool."""

    def test_exhausted_shared_pool_rejects_the_sort(
        self, backend, small_sort_input, sort_budget
    ):
        from repro.exceptions import BufferpoolExhaustedError
        from repro.storage.bufferpool import Bufferpool

        pool = Bufferpool(sort_budget)
        pool.reserve(1, owner="other-operator")
        algorithm = ExternalMergeSort(backend, sort_budget, bufferpool=pool)
        with pytest.raises(BufferpoolExhaustedError):
            algorithm.sort(small_sort_input)

    def test_private_pool_by_default(self, backend, sort_budget):
        algorithm = ExternalMergeSort(backend, sort_budget)
        assert algorithm.bufferpool.budget is sort_budget
        assert algorithm.bufferpool.reserved_bytes == 0
