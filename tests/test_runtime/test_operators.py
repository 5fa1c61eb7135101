"""Tests for the runtime-API physical operators (Listing 2 / Figure 4)."""

import pytest

from repro.joins import GraceJoin
from repro.runtime.context import OperatorContext
from repro.runtime.operators import PartitionJoinFunctor, SegmentedGraceJoinOperator
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import make_join_inputs

from tests.conftest import build_collection


def reference_join(left, right):
    by_key = {}
    for record in left.records:
        by_key.setdefault(record[0], []).append(record)
    return sorted(
        l + r for r in right.records for l in by_key.get(r[0], [])
    )


class TestPartitionJoinFunctor:
    def test_joins_two_materialized_collections(self, backend):
        left = build_collection(backend, [1, 2, 3], name="fl")
        right = build_collection(backend, [2, 3, 3, 4], name="fr")
        output = PersistentCollection(name="fo", status=CollectionStatus.MEMORY)
        functor = PartitionJoinFunctor(WISCONSIN_SCHEMA.key, WISCONSIN_SCHEMA.key)
        functor(left, right, output)
        assert sorted(output.records) == reference_join(left, right)


class TestSegmentedGraceJoinOperator:
    def test_produces_the_reference_join(self, backend):
        left, right = make_join_inputs(80, 800, backend, left_name="op-L", right_name="op-R")
        context = OperatorContext(backend)
        operator = SegmentedGraceJoinOperator(
            context, left, right, num_partitions=4, materialize_output=False
        )
        output = operator.evaluate()
        assert sorted(output.records) == reference_join(left, right)

    def test_records_the_figure4_graph(self, backend):
        left, right = make_join_inputs(40, 400, backend, left_name="g-L", right_name="g-R")
        context = OperatorContext(backend)
        operator = SegmentedGraceJoinOperator(
            context, left, right, num_partitions=3, materialize_output=False
        )
        operator.evaluate()
        # Two partition calls plus one merge call per partition pair.
        kinds = [call.kind.value for call in context.graph.calls()]
        assert kinds.count("partition") == 2
        assert kinds.count("merge") == 3

    def test_rule_decisions_are_recorded(self, backend):
        left, right = make_join_inputs(40, 400, backend, left_name="d-L", right_name="d-R")
        context = OperatorContext(backend)
        SegmentedGraceJoinOperator(
            context, left, right, num_partitions=3, materialize_output=False
        ).evaluate()
        assert context.decisions  # every partition open() triggered an assessment

    def test_never_writes_more_than_static_grace_join(self, backend, device):
        """The rule-driven operator is write-limited relative to Grace join."""
        left, right = make_join_inputs(100, 1000, backend, left_name="w-L", right_name="w-R")
        context = OperatorContext(backend)
        before = device.snapshot()
        SegmentedGraceJoinOperator(
            context, left, right, num_partitions=4, materialize_output=False
        ).evaluate()
        runtime_delta = device.snapshot() - before

        budget = MemoryBudget.from_records(max(2, len(left) // 4))
        before = device.snapshot()
        GraceJoin(backend, budget, materialize_output=False).join(left, right)
        grace_delta = device.snapshot() - before
        assert runtime_delta.cacheline_writes <= grace_delta.cacheline_writes * 1.001

    def test_materialized_output_is_persistent(self, backend):
        left, right = make_join_inputs(30, 300, backend, left_name="m-L", right_name="m-R")
        context = OperatorContext(backend)
        output = SegmentedGraceJoinOperator(
            context, left, right, num_partitions=2, materialize_output=True
        ).evaluate()
        assert output.is_materialized
        assert output.store in backend.stores()
