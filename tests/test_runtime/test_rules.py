"""Tests for the four materialization rules."""

import pytest

from repro.hashing import partition_of
from repro.runtime.context import OperatorContext
from repro.runtime.rules import RuleEngine
from repro.storage.collection import CollectionStatus

from tests.conftest import build_collection


@pytest.fixture
def context(backend):
    return OperatorContext(backend)


@pytest.fixture
def source(backend, context):
    collection = build_collection(backend, range(200), name="rules-source")
    return context.register(collection, expected_records=200)


class TestProcessToAppendRule:
    def test_merge_fed_collection_stays_deferred(self, context, source):
        part = context.partition(source, lambda r: 0, num_partitions=1)[0]
        target = context.declare(status=CollectionStatus.MEMORY)
        context.merge(part, source, lambda a, b, c: None, target)
        decision = RuleEngine().assess(part, context)
        assert not decision.materialize
        assert decision.rule == "process-to-append"


class TestEagerPartitionRule:
    def test_sibling_materialization_propagates(self, context, source):
        outputs = context.partition(source, lambda r: r[0] % 3, num_partitions=3)
        producer = context.graph.producer_of(outputs[0])
        producer.group_decision = "materialize"
        decision = RuleEngine().assess(outputs[1], context)
        assert decision.materialize
        assert decision.rule == "eager-partition"

    def test_no_group_decision_falls_through(self, context, source):
        outputs = context.partition(source, lambda r: r[0] % 3, num_partitions=3)
        decision = RuleEngine().assess(outputs[1], context)
        assert decision.rule != "eager-partition"


class TestMultiProcessRule:
    def test_many_consumers_forces_materialization(self, context, source):
        low, _ = context.split(source, 100)
        # Tell the runtime the collection will be processed more times than
        # the write/read ratio (15 for the default device).
        context.set_process_count_hint(low, 20)
        decision = RuleEngine().assess(low, context)
        assert decision.materialize
        assert decision.rule == "multi-process"

    def test_few_consumers_does_not_fire(self, context, source):
        low, _ = context.split(source, 100)
        context.set_process_count_hint(low, 2)
        decision = RuleEngine().assess(low, context)
        assert decision.rule != "multi-process"


class TestReadOverWriteRule:
    def test_accumulated_reads_trigger_materialization(self, context, source):
        """Re-deriving repeatedly accumulates read cost until writing wins."""
        outputs = context.partition(
            source, lambda r: partition_of(r[0], 4), num_partitions=4
        )
        target = outputs[0]
        engine = RuleEngine()
        decisions = []
        for _ in range(30):
            decision = engine.assess(target, context)
            decisions.append(decision)
            if decision.materialize:
                break
            list(context.reconstruct(target))
        assert decisions[-1].materialize
        assert decisions[-1].rule == "read-over-write"
        assert len(decisions) > 1  # it stayed lazy for a while first

    def test_small_collection_with_cheap_write_materializes_quickly(
        self, context, source
    ):
        # A filter keeping almost everything: writing it once costs about
        # lambda * |T| while every re-derivation costs |T| reads, so the
        # rule fires as soon as the accumulated reads pass that bar.
        kept = context.filter(source, lambda r: True, selectivity=1.0)
        engine = RuleEngine()
        for _ in range(40):
            decision = engine.assess(kept, context)
            if decision.materialize:
                break
            list(context.reconstruct(kept))
        assert decision.materialize

    def test_primary_inputs_are_not_assessed_for_rewrite(self, context, source):
        decision = RuleEngine().rule_read_over_write(source, context)
        assert decision is None


class TestDefaultBehaviour:
    def test_default_is_to_defer(self, context, source):
        low, _ = context.split(source, 100)
        decision = RuleEngine().assess(low, context)
        assert not decision.materialize
        assert decision.rule in {"default", "process-to-append"}

    def test_assess_via_context_promotes_collection(self, context, source):
        low, _ = context.split(source, 100)
        context.set_process_count_hint(low, 20)
        decision = context.assess(low)
        assert decision.materialize
        assert low.is_materialized
        assert context.decisions[-1] is decision

    def test_assess_partition_sets_group_decision(self, context, source):
        outputs = context.partition(source, lambda r: r[0] % 2, num_partitions=2)
        context.set_process_count_hint(outputs[0], 20)
        context.assess(outputs[0])
        producer = context.graph.producer_of(outputs[0])
        assert producer.group_decision == "materialize"
        # The sibling now materializes through the eager-partition rule.
        sibling_decision = context.assess(outputs[1])
        assert sibling_decision.materialize
        assert sibling_decision.rule == "eager-partition"
