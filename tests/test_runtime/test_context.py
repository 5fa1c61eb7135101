"""Tests for the operator context: declare, record, assess, produce."""

import pytest

from repro.exceptions import ConfigurationError, GraphConsistencyError
from repro.hashing import partition_of
from repro.runtime.context import OperatorContext
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection


@pytest.fixture
def context(backend):
    return OperatorContext(backend)


@pytest.fixture
def source(backend, context):
    collection = build_collection(backend, range(100), name="source")
    return context.register(collection, expected_records=100)


class TestDeclarationAndNaming:
    def test_create_name_is_unique(self, context):
        assert context.create_name() != context.create_name()

    def test_declare_defaults_to_deferred(self, context):
        collection = context.declare()
        assert collection.is_deferred
        assert collection.context is context

    def test_register_is_idempotent_by_identity(self, context, source):
        assert context.register(source, expected_records=7) is source
        assert context.collections() == [source]
        assert context.estimated_cardinality(source) == 100

    def test_collections_under_one_label_are_tracked_apart(self, context, backend):
        # Names are labels: two collections under one label are two
        # collections, each derived, assessed and reconstructed on its own.
        first, second = (
            context.register(build_collection(backend, keys, name="T"))
            for keys in (range(40), range(100, 110))
        )
        evens, small = (
            context.filter(source, keep, 0.5, output=context.declare("Tf"))
            for source, keep in (
                (first, lambda r: r[0] % 2 == 0),
                (second, lambda r: r[0] < 105),
            )
        )
        assert context.graph.producer_of(evens).inputs == (first,)
        assert context.graph.producer_of(small).inputs == (second,)
        assert context.estimated_cardinality(evens) == 20
        assert context.estimated_cardinality(small) == 5
        context.set_process_count_hint(evens, 20)
        assert context.expected_process_count(small) == 0
        assert [r[0] for r in evens.scan()] == list(range(0, 40, 2))
        assert [r[0] for r in small.scan()] == list(range(100, 105))
        assert [r[0] for r in small.scan()] == list(range(100, 105))
        assert context.reconstruction_count(evens) == 1
        assert context.reconstruction_count(small) == 2
        assert context.last_reconstructed_records(evens) == 20
        assert context.last_reconstructed_records(small) == 5
        # Each scan opens its own root: read costs accrue per collection.
        device = context.backend.device

        def one_scan(root):
            cachelines = device.geometry.bytes_to_cachelines(root.nbytes)
            return device.latency.read_cost_ns(cachelines)

        assert context.accumulated_read_cost([first]) == one_scan(first)
        assert context.accumulated_read_cost([second]) == 2 * one_scan(second)
        # Only ``evens`` is read more often than lambda (15): it alone is
        # materialized, from its own root.
        evens.open()
        small.open()
        assert [(d.collection, d.rule) for d in context.decisions] == [
            (evens, "multi-process"),
            (small, "default"),
        ]
        assert evens.records == first.records[::2]
        assert small.is_deferred

    def test_registered_primary_input_is_available(self, context, source):
        assert context.is_available(source)
        assert not context.is_pending(source)


class TestPrimitives:
    def test_split_records_call_and_estimates(self, context, source):
        low, high = context.split(source, 30)
        assert context.graph.producer_of(low).kind.value == "split"
        assert context.estimated_cardinality(low) == 30
        assert context.estimated_cardinality(high) == 70

    def test_partition_records_call(self, context, source):
        outputs = context.partition(
            source, lambda record: record[0] % 4, num_partitions=4
        )
        assert len(outputs) == 4
        assert all(output.is_deferred for output in outputs)
        assert context.estimated_cardinality(outputs[0]) == 25

    def test_partition_output_count_validation(self, context, source):
        outputs = [context.declare() for _ in range(3)]
        with pytest.raises(ConfigurationError):
            context.partition(source, lambda r: 0, num_partitions=4, outputs=outputs)

    def test_filter_records_call(self, context, source):
        output = context.filter(source, lambda record: record[0] < 10, selectivity=0.1)
        assert context.graph.producer_of(output).kind.value == "filter"
        assert context.estimated_cardinality(output) == 10

    def test_filter_keeps_an_empty_caller_output(self, context, source):
        # An empty collection has len() 0; it must still count as given.
        output = context.declare(expected_records=0)
        result = context.filter(source, lambda record: True, 1.0, output=output)
        assert result is output
        assert context.graph.producer_of(output).kind.value == "filter"

    def test_split_keeps_empty_caller_outputs(self, context, source):
        low = context.declare(expected_records=0)
        high = context.declare(expected_records=0)
        assert context.split(source, 0, low=low, high=high) == (low, high)
        assert context.graph.producer_of(low).kind.value == "split"
        assert context.graph.producer_of(high).kind.value == "split"

    def test_split_adopts_undeclared_caller_outputs(self, context, source, backend):
        deferred = CollectionStatus.DEFERRED
        low, high = (
            PersistentCollection(name=name, backend=backend, status=deferred)
            for name in ("low", "high")
        )
        context.split(source, 30, low=low, high=high)
        assert low.context is context and high.context is context
        assert (low.estimated_records, high.estimated_records) == (30, 70)
        assert [r[0] for r in high.scan()] == [r[0] for r in source.records[30:]]

    def test_merge_runs_the_functor_eagerly(self, context, source, backend):
        target = context.declare(status=CollectionStatus.MEMORY)
        calls = []

        def merge_fn(left, right, output):
            calls.append((left.name, right.name, output.name))

        context.merge(source, source, merge_fn, target)
        assert calls == [("source", "source", target.name)]
        assert context.graph.consumer_count(source) == 2


class TestReconstruction:
    def test_reconstruct_split(self, context, source):
        low, high = context.split(source, 30)
        assert [r[0] for r in context.reconstruct(low)] == [
            r[0] for r in source.records[:30]
        ]
        assert len(list(context.reconstruct(high))) == 70

    def test_reconstruct_partition(self, context, source):
        outputs = context.partition(source, lambda r: r[0] % 3, num_partitions=3)
        rebuilt = list(context.reconstruct(outputs[1]))
        assert all(record[0] % 3 == 1 for record in rebuilt)
        expected = [r for r in source.records if r[0] % 3 == 1]
        assert rebuilt == expected

    def test_reconstruct_filter(self, context, source):
        output = context.filter(source, lambda r: r[0] >= 90, selectivity=0.1)
        assert sorted(r[0] for r in context.reconstruct(output)) == list(
            range(90, 100)
        )

    def test_reconstruct_chained_derivation(self, context, source):
        low, _ = context.split(source, 50)
        filtered = context.filter(low, lambda r: r[0] % 2 == 0, selectivity=0.5)
        rebuilt = [r[0] for r in context.reconstruct(filtered)]
        assert rebuilt == [r[0] for r in source.records[:50] if r[0] % 2 == 0]

    def test_reconstruct_with_slice(self, context, source):
        low, _ = context.split(source, 50)
        sliced = list(context.reconstruct(low, start=10, stop=20))
        assert sliced == source.records[10:20]

    def test_scanning_a_deferred_collection_goes_through_context(self, context, source):
        low, _ = context.split(source, 25)
        assert [r[0] for r in low.scan()] == [r[0] for r in source.records[:25]]
        assert low.estimated_records == 25

    def test_reconstruct_charges_reads_but_no_writes(self, context, source, device):
        outputs = context.partition(source, lambda r: r[0] % 2, num_partitions=2)
        before = device.snapshot()
        list(context.reconstruct(outputs[0]))
        delta = device.snapshot() - before
        assert delta.cacheline_reads > 0
        assert delta.cacheline_writes == 0

    def test_merge_outputs_cannot_be_rederived(self, context, source):
        target = context.declare(status=CollectionStatus.MEMORY)
        context.merge(source, source, lambda a, b, c: None, target)
        other = context.declare()
        context.graph.add_call(
            __import__("repro.runtime.api", fromlist=["MergeCall"]).MergeCall(
                merge_fn=lambda a, b, c: None
            ),
            (source,),
            (other,),
        )
        with pytest.raises(GraphConsistencyError):
            list(context.reconstruct(other))

    def test_underived_unavailable_collection_raises(self, context):
        orphan = context.declare()
        with pytest.raises(GraphConsistencyError):
            list(context.reconstruct(orphan))


class TestProduce:
    def test_produce_fills_and_charges_writes(self, context, source, device):
        outputs = context.partition(
            source, lambda r: partition_of(r[0], 2), num_partitions=2
        )
        for output in outputs:
            output.mark_materialized()
        context.graph.producer_of(outputs[0]).group_decision = "materialize"
        before = device.snapshot()
        context.produce(outputs[0])
        delta = device.snapshot() - before
        assert delta.cacheline_writes > 0
        assert context.is_available(outputs[0])
        # The whole partition group was produced in the same source scan.
        assert context.is_available(outputs[1])
        total = sum(len(output.records) for output in outputs)
        assert total == len(source.records)

    def test_produce_is_idempotent(self, context, source):
        low, _ = context.split(source, 10)
        low.mark_materialized()
        context.produce(low)
        records_after_first = list(low.records)
        context.produce(low)
        assert low.records == records_after_first

    def test_produce_deferred_collection_requires_assessment(self, context, source):
        low, _ = context.split(source, 10)
        with pytest.raises(GraphConsistencyError):
            context.produce(low)

    def test_produce_without_producer_raises(self, context, backend):
        stray = context.declare()  # deferred, no producer call recorded
        stray.mark_materialized()
        with pytest.raises(GraphConsistencyError):
            context.produce(stray)

    def test_produce_is_noop_for_registered_materialized_collections(
        self, context, backend
    ):
        ready = context.declare(status=CollectionStatus.MATERIALIZED)
        context.produce(ready)  # already available (empty) -> no error
        assert ready.records == []


class TestProduceIsAllOrNothing:
    """A replay that raises leaves no partial output behind.

    The fault strikes in the second root charge batch, after the first
    batch's records have already been appended to the targets.
    """

    FAULT_KEY = 1500

    @pytest.fixture
    def big_source(self, backend, context):
        collection = build_collection(backend, range(2000), name="big-source")
        return context.register(collection)

    def faulty(self, fn):
        armed = [True]

        def guarded(record):
            if armed[0] and record[0] == self.FAULT_KEY:
                raise RuntimeError("injected fault")
            return fn(record)

        return guarded, armed

    def test_failed_produce_clears_its_target(self, context, big_source, backend):
        predicate, armed = self.faulty(lambda record: record[0] % 2 == 0)
        evens = context.filter(big_source, predicate, selectivity=0.5)
        evens.mark_materialized()
        with pytest.raises(RuntimeError):
            evens.open()
        assert evens.records == []
        assert evens.store.logical_bytes == 0
        armed[0] = False
        evens.open()
        assert [r[0] for r in evens.scan()] == list(range(0, 2000, 2))

    def test_failed_group_produce_clears_every_sibling(
        self, context, big_source, backend
    ):
        partition_fn, armed = self.faulty(lambda record: record[0] % 3)
        outputs = context.partition(big_source, partition_fn, num_partitions=3)
        context.graph.producer_of(outputs[0]).group_decision = "materialize"
        outputs[0].mark_materialized()
        with pytest.raises(RuntimeError):
            outputs[0].open()
        for output in outputs:
            assert output.records == []
            assert output.store.logical_bytes == 0
            assert context.is_pending(output)
        armed[0] = False
        outputs[0].open()
        for index, output in enumerate(outputs):
            assert [r[0] for r in output.scan()] == list(range(index, 2000, 3))


class TestCostBookkeeping:
    def test_estimated_write_cost_uses_cardinality(self, context, source):
        low, _ = context.split(source, 50)
        cost = context.estimated_write_cost(low)
        expected_cachelines = 50 * WISCONSIN_SCHEMA.record_bytes / 64
        assert cost == pytest.approx(expected_cachelines * 150.0)

    def test_construction_read_cost_uses_input_size(self, context, source):
        low, _ = context.split(source, 50)
        cost = context.estimated_construction_read_cost(low)
        expected_cachelines = 100 * WISCONSIN_SCHEMA.record_bytes / 64
        assert cost == pytest.approx(expected_cachelines * 10.0)

    def test_accumulated_read_cost_grows_with_reconstructions(self, context, source):
        outputs = context.partition(source, lambda r: r[0] % 2, num_partitions=2)
        assert context.accumulated_read_cost([source]) == 0.0
        list(context.reconstruct(outputs[0]))
        first = context.accumulated_read_cost([source])
        list(context.reconstruct(outputs[1]))
        second = context.accumulated_read_cost([source])
        assert second > first > 0

    def test_process_count_hints(self, context, source):
        context.set_process_count_hint(source, 5)
        assert context.expected_process_count(source) == 5
        with pytest.raises(ConfigurationError):
            context.set_process_count_hint(source, -1)
