"""Tests for the package's public surface."""

import importlib

import pytest

import repro
from repro.exceptions import (
    BufferpoolExhaustedError,
    CollectionStateError,
    ConfigurationError,
    CostModelError,
    GraphConsistencyError,
    InsufficientMemoryError,
    ReproError,
    UnknownCollectionError,
)


#: Every module that declares a public surface with ``__all__``.
MODULES_WITH_ALL = [
    "repro",
    "repro.session",
    "repro.aggregation",
    "repro.analysis",
    "repro.bench",
    "repro.joins",
    "repro.pmem",
    "repro.pmem.backends",
    "repro.query",
    "repro.runtime",
    "repro.shard",
    "repro.sorts",
    "repro.storage",
    "repro.workload_mgmt",
    "repro.workloads",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_ALL)
def test_all_names_resolve(module_name):
    """A re-export left behind by a deletion fails here."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_sort_classes_exported(self):
        assert repro.ExternalMergeSort.short_name == "ExMS"
        assert repro.SegmentSort.short_name == "SegS"
        assert repro.HybridSort.short_name == "HybS"
        assert repro.LazySort.short_name == "LaS"
        assert repro.SelectionSort.short_name == "SelS"

    def test_join_classes_exported(self):
        assert repro.GraceJoin.short_name == "GJ"
        assert repro.SimpleHashJoin.short_name == "HJ"
        assert repro.NestedLoopsJoin.short_name == "NLJ"
        assert repro.HybridGraceNestedLoopsJoin.short_name == "HybJ"
        assert repro.SegmentedGraceJoin.short_name == "SegJ"
        assert repro.LazyHashJoin.short_name == "LaJ"

    def test_infrastructure_exported(self):
        assert repro.LatencyModel().write_read_ratio == pytest.approx(15.0)
        assert repro.WISCONSIN_SCHEMA.record_bytes == 80
        assert callable(repro.make_backend)
        assert repro.CollectionStatus.DEFERRED.value == "deferred"

    def test_minimal_end_to_end_via_public_api_only(self):
        device = repro.PersistentMemoryDevice()
        backend = repro.BlockedMemoryBackend(device)
        collection = repro.PersistentCollection(name="api-demo", backend=backend)
        collection.extend(repro.WISCONSIN_SCHEMA.make_record(k) for k in [3, 1, 2])
        collection.seal()
        budget = repro.MemoryBudget.from_records(2)
        result = repro.SegmentSort(backend, budget, write_intensity=0.5).sort(collection)
        assert [r[0] for r in result.output.records] == [1, 2, 3]


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            InsufficientMemoryError,
            BufferpoolExhaustedError,
            CollectionStateError,
            UnknownCollectionError,
            GraphConsistencyError,
            CostModelError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_the_base_class_catches_library_errors(self):
        with pytest.raises(ReproError):
            repro.MemoryBudget(-1)
