"""Tests for the grouped-aggregation operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import HashAggregation, SortedAggregation
from repro.exceptions import ConfigurationError
from repro.pmem.backends import BlockedMemoryBackend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.context import OperatorContext
from repro.sorts import LazySort
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection


def reference_groups(collection, group_index, aggregates):
    """Reference group-by computed with plain Python dictionaries."""
    groups = {}
    for record in collection.records:
        groups.setdefault(record[group_index], []).append(record)
    rows = []
    for key in sorted(groups):
        row = [key]
        for name, attribute in aggregates.items():
            values = [record[attribute] for record in groups[key]]
            if name == "count":
                row.append(len(values))
            elif name == "sum":
                row.append(sum(values))
            elif name == "min":
                row.append(min(values))
            elif name == "max":
                row.append(max(values))
            elif name == "avg":
                row.append(sum(values) // len(values))
        rows.append(tuple(row))
    return rows


AGGREGATES = {"count": 0, "sum": 1, "min": 2, "max": 3}


@pytest.fixture
def grouped_input(backend):
    # Keys 0-19, ~20 records per group, shuffled by the Wisconsin-ish pattern.
    keys = [(i * 7) % 20 for i in range(400)]
    return build_collection(backend, keys, name="grouped")


@pytest.fixture(params=[SortedAggregation, HashAggregation])
def aggregation_cls(request):
    return request.param


class TestCorrectness:
    def test_matches_reference(self, aggregation_cls, backend, grouped_input):
        budget = MemoryBudget.from_records(30)
        result = aggregation_cls(
            backend, budget, group_index=0, aggregates=AGGREGATES
        ).aggregate(grouped_input)
        assert sorted(result.output.records) == reference_groups(
            grouped_input, 0, AGGREGATES
        )
        assert result.groups == 20

    def test_single_group(self, aggregation_cls, backend):
        collection = build_collection(backend, [5] * 50, name="one-group")
        budget = MemoryBudget.from_records(10)
        result = aggregation_cls(
            backend, budget, aggregates={"count": 0, "sum": 0}
        ).aggregate(collection)
        assert result.output.records == [(5, 50, 250)]

    def test_every_record_its_own_group(self, aggregation_cls, backend):
        collection = build_collection(backend, range(100), name="all-distinct")
        budget = MemoryBudget.from_records(10)
        result = aggregation_cls(backend, budget, aggregates={"count": 0}).aggregate(
            collection
        )
        assert result.groups == 100
        assert sorted(result.output.records) == [(key, 1) for key in range(100)]

    def test_empty_input(self, aggregation_cls, backend):
        collection = build_collection(backend, [], name="empty-agg")
        budget = MemoryBudget.from_records(10)
        result = aggregation_cls(backend, budget).aggregate(collection)
        assert result.output.records == []

    def test_deferred_input_that_selects_nothing(self, aggregation_cls, backend):
        # A deferred filter only knows its estimated cardinality, so the
        # aggregation cannot tell it is empty before reading it.
        source = build_collection(backend, range(100), name="deferred-source")
        context = OperatorContext(backend)
        selected = context.filter(
            context.register(source), lambda record: False, selectivity=0.5
        )
        assert selected.estimated_records == 50
        result = aggregation_cls(
            backend, MemoryBudget.from_records(30), aggregates={"count": 0, "sum": 1}
        ).aggregate(selected)
        assert result.groups == 0
        assert result.output.records == []

    def test_group_by_non_key_attribute(self, aggregation_cls, backend, grouped_input):
        budget = MemoryBudget.from_records(30)
        result = aggregation_cls(
            backend, budget, group_index=2, aggregates={"count": 0}
        ).aggregate(grouped_input)
        assert sorted(result.output.records) == reference_groups(
            grouped_input, 2, {"count": 0}
        )

    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=150),
        workspace=st.integers(min_value=2, max_value=20),
    )
    def test_property_both_strategies_agree(self, keys, workspace):
        device = PersistentMemoryDevice()
        backend = BlockedMemoryBackend(device)
        collection = PersistentCollection(name="prop-agg", backend=backend)
        collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
        collection.seal()
        budget = MemoryBudget.from_records(workspace)
        spec = {"count": 0, "sum": 1, "max": 3}
        sorted_result = SortedAggregation(backend, budget, aggregates=spec).aggregate(
            collection
        )
        hash_result = HashAggregation(backend, budget, aggregates=spec).aggregate(
            collection
        )
        assert sorted(sorted_result.output.records) == sorted(
            hash_result.output.records
        )


class TestWriteProfiles:
    def test_sorted_aggregation_is_write_limited(self, backend):
        """With a pipelined sort, the sorted strategy writes little more
        than the (tiny) aggregate output, while hash aggregation spills raw
        records once the group table overflows."""
        # 400 records spread over 100 groups, but DRAM for only ~10 groups.
        many_groups = build_collection(
            backend, [(i * 7) % 100 for i in range(400)], name="many-groups"
        )
        budget = MemoryBudget(64 * 10)
        lazy_sorted = SortedAggregation(
            backend,
            budget,
            aggregates={"count": 0},
            sort_class=LazySort,
        ).aggregate(many_groups)
        hashed = HashAggregation(
            backend, budget, aggregates={"count": 0}
        ).aggregate(many_groups)
        assert sorted(lazy_sorted.output.records) == sorted(hashed.output.records)
        assert lazy_sorted.cacheline_writes < hashed.cacheline_writes
        assert hashed.spills >= 1

    def test_hash_aggregation_without_pressure_never_spills(self, backend, grouped_input):
        budget = MemoryBudget.from_records(500)
        result = HashAggregation(backend, budget, aggregates={"count": 0}).aggregate(
            grouped_input
        )
        assert result.spills == 0

    def test_sorted_aggregation_records_sort_details(self, backend, grouped_input):
        budget = MemoryBudget.from_records(40)
        result = SortedAggregation(backend, budget).aggregate(grouped_input)
        assert result.details["sort"] == "SegS"
        assert result.output.is_sorted(key=lambda record: record[0])


class TestConfiguration:
    def test_invalid_group_index(self, backend):
        budget = MemoryBudget.from_records(10)
        with pytest.raises(ConfigurationError):
            SortedAggregation(backend, budget, group_index=10)

    def test_invalid_aggregate_attribute(self, backend):
        budget = MemoryBudget.from_records(10)
        with pytest.raises(ConfigurationError):
            HashAggregation(backend, budget, aggregates={"sum": 42})

    def test_unknown_aggregate_name(self, backend):
        budget = MemoryBudget.from_records(10)
        with pytest.raises(ConfigurationError):
            SortedAggregation(backend, budget, aggregates={"median": 0})

    def test_output_schema_width(self, backend, grouped_input):
        budget = MemoryBudget.from_records(30)
        operator = SortedAggregation(
            backend, budget, aggregates={"count": 0, "sum": 1}
        )
        assert operator.output_schema.num_fields == 3
        result = operator.aggregate(grouped_input)
        assert all(len(record) == 3 for record in result.output.records)
