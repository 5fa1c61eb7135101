"""Tests for the API call descriptors and the control-flow graph."""

import pytest

from repro.exceptions import ConfigurationError, GraphConsistencyError
from repro.runtime.api import CallKind, FilterCall, MergeCall, PartitionCall, SplitCall
from repro.runtime.graph import ControlFlowGraph
from repro.storage.collection import CollectionStatus, PersistentCollection


class TestCallDescriptors:
    def test_split_call_slices(self):
        call = SplitCall(position=10)
        assert call.kind is CallKind.SPLIT
        assert call.output_slice(0) == (0, 10)
        assert call.output_slice(1) == (10, None)

    def test_split_call_invalid_output_index(self):
        with pytest.raises(ConfigurationError):
            SplitCall(position=10).output_slice(2)

    def test_split_call_negative_position(self):
        with pytest.raises(ConfigurationError):
            SplitCall(position=-1)

    def test_partition_call_expected_size_uniform(self):
        call = PartitionCall(partition_fn=lambda r: 0, num_partitions=4)
        assert call.kind is CallKind.PARTITION
        assert call.expected_size(2, 100) == 25

    def test_partition_call_explicit_sizes(self):
        call = PartitionCall(
            partition_fn=lambda r: 0, num_partitions=2, expected_sizes=(70, 30)
        )
        assert call.expected_size(0, 100) == 70
        assert call.expected_size(1, 100) == 30

    def test_partition_call_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            PartitionCall(
                partition_fn=lambda r: 0, num_partitions=3, expected_sizes=(1, 2)
            )

    def test_partition_call_invalid_count(self):
        with pytest.raises(ConfigurationError):
            PartitionCall(partition_fn=lambda r: 0, num_partitions=0)

    def test_filter_call_selectivity(self):
        call = FilterCall(predicate=lambda r: True, selectivity=0.25)
        assert call.kind is CallKind.FILTER
        assert call.expected_size(1000) == 250

    def test_filter_call_selectivity_validation(self):
        with pytest.raises(ConfigurationError):
            FilterCall(predicate=lambda r: True, selectivity=1.5)

    def test_merge_call_kind(self):
        assert MergeCall(merge_fn=lambda a, b, c: None).kind is CallKind.MERGE


class TestControlFlowGraph:
    def test_add_call_links_producers_and_consumers(self):
        graph = ControlFlowGraph()
        call = graph.add_call(SplitCall(position=5), ("T",), ("Tl", "Th"))
        assert graph.producer_of("Tl") is call
        assert graph.producer_of("Th") is call
        assert graph.producer_of("T") is None
        assert graph.consumers_of("T") == [call]
        assert graph.consumer_count("T") == 1

    def test_single_producer_enforced(self):
        graph = ControlFlowGraph()
        graph.add_call(SplitCall(position=5), ("T",), ("Tl", "Th"))
        with pytest.raises(GraphConsistencyError):
            graph.add_call(SplitCall(position=3), ("T",), ("Tl",))

    def test_collections_under_one_label_are_distinct_nodes(self):
        graph = ControlFlowGraph()
        first, second, low, high = (
            PersistentCollection(name=name, status=CollectionStatus.MEMORY)
            for name in ("T", "T", "Tf", "Tf")
        )
        keep_all = FilterCall(predicate=lambda r: True)
        to_low = graph.add_call(keep_all, (first,), (low,))
        to_high = graph.add_call(keep_all, (second,), (high,))
        assert graph.producer_of(low) is to_low
        assert graph.producer_of(high) is to_high
        assert graph.consumers_of(first) == [to_low]
        assert graph.consumer_count(second) == 1

    def test_output_index(self):
        graph = ControlFlowGraph()
        call = graph.add_call(SplitCall(position=5), ("T",), ("Tl", "Th"))
        assert call.output_index("Th") == 1
        with pytest.raises(GraphConsistencyError):
            call.output_index("nope")

    def test_len_counts_calls(self):
        graph = ControlFlowGraph()
        graph.add_call(SplitCall(position=1), ("T",), ("A", "B"))
        graph.add_call(FilterCall(predicate=lambda r: True), ("A",), ("C",))
        assert len(graph) == 2
