"""Boundary decisions: materialize vs. pipeline vs. defer per plan edge."""

import dataclasses

import pytest

from repro.bench.harness import make_environment
from repro.exceptions import ConfigurationError
from repro.pmem.metrics import IOSnapshot
from repro.query import (
    BoundaryKind,
    CostBasedPlanner,
    Query,
    QueryExecutor,
    build_operator,
)
from repro.runtime.api import CallKind
from repro.session import Session
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import CollectionStatus, StoreOwner
from repro.workloads.generator import make_join_inputs, make_sort_input


def filter_join_group_query(left, right):
    """The canonical Filter -> Join -> GroupBy chain."""
    return (
        Query.scan(left)
        .filter(lambda r: r[0] < 75, selectivity=0.5)
        .join(Query.scan(right))
        .group_by(1, {"count": 1, "sum": 0}, estimated_groups=50)
    )


def walk_non_scan(plan):
    return [node for node in plan.root.walk() if node.children]


class TestCostPolicy:
    def test_filter_join_group_chain_picks_a_non_materialized_boundary(
        self, backend
    ):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            filter_join_group_query(left, right)
        )
        non_root = [n for n in walk_non_scan(plan) if n is not plan.root]
        chosen = {node.boundary.kind for node in non_root}
        assert chosen & {BoundaryKind.PIPELINE, BoundaryKind.DEFER}

    def test_every_edge_carries_priced_candidates(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            filter_join_group_query(left, right)
        )
        for node in walk_non_scan(plan):
            if node is plan.root:
                continue
            assert "materialize" in node.boundary.priced
            assert node.boundary.reason

    def test_defer_only_offered_when_write_beats_rederivation(self, backend):
        # lambda = 1: writing the filtered half costs less than re-reading
        # the full source, so the cost policy must not defer.
        env = make_environment("blocked_memory", write_ns=10.0)
        left, right = make_join_inputs(150, 1_500, env.backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        plan = CostBasedPlanner(env.backend, budget).plan(
            filter_join_group_query(left, right)
        )
        filter_nodes = [
            n for n in plan.root.walk() if n.logical.kind == "Filter"
        ]
        assert filter_nodes
        assert all(
            n.boundary.kind is not BoundaryKind.DEFER for n in filter_nodes
        )

    def test_invalid_policy_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="boundary policy"):
            CostBasedPlanner(
                backend, MemoryBudget.from_records(16), boundary_policy="lazy"
            )


class TestForcedPolicies:
    @pytest.fixture
    def setup(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        session = Session(backend, budget)
        return session, filter_join_group_query(left, right)

    def test_policies_return_identical_records(self, setup):
        session, query = setup
        baseline = session.query(query, boundary_policy="materialize")
        for policy in ("pipeline", "defer", "cost"):
            result = session.query(query, boundary_policy=policy)
            assert result.records == baseline.records, policy

    def test_pipeline_policy_writes_less_than_materialize(self, setup):
        session, query = setup
        materialized = session.query(query, boundary_policy="materialize")
        pipelined = session.query(query, boundary_policy="pipeline")
        assert (
            pipelined.io.cacheline_writes < materialized.io.cacheline_writes
        )

    def test_defer_policy_saves_the_filter_settlement_write(self, setup):
        session, query = setup
        materialized = session.query(query, boundary_policy="materialize")
        deferred = session.query(query, boundary_policy="defer")
        assert deferred.io.cacheline_writes < materialized.io.cacheline_writes


class TestDeferredExecution:
    def test_deferred_filter_rederives_through_the_runtime(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        session = Session(backend, budget)
        query = filter_join_group_query(left, right)
        baseline = session.query(query, boundary_policy="materialize")
        result = session.query(query, boundary_policy="defer")
        # Byte-identical records despite the dropped intermediate.
        assert result.records == baseline.records
        (context,) = result.runtime_contexts
        deferred_execs = [
            e
            for e in result.executions.values()
            if e.details.get("deferred")
        ]
        assert deferred_execs, "the filter edge must have deferred"
        output = deferred_execs[0].output
        # The query dropped its deferred intermediate when it ended.
        assert output.status is CollectionStatus.DROPPED
        assert context.reconstruction_count(output) >= 1
        # The derivation is recorded as a FILTER call in the graph.
        producer = context.graph.producer_of(output)
        assert producer is not None and producer.kind is CallKind.FILTER

    def test_rules_veto_deferral_at_symmetric_latency(self):
        # lambda = 1: the read-over-write rule materializes the deferred
        # collection the moment it is assessed; results stay correct and
        # the execution details report the overriding rule.
        env = make_environment("blocked_memory", write_ns=10.0)
        left, right = make_join_inputs(150, 1_500, env.backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        session = Session(env.backend, budget)
        query = filter_join_group_query(left, right)
        baseline = session.query(query, boundary_policy="materialize")
        result = session.query(query, boundary_policy="defer")
        assert result.records == baseline.records
        overridden = [
            e
            for e in result.executions.values()
            if e.details.get("deferred") is False
        ]
        assert overridden, "the rule engine should have vetoed the deferral"
        assert overridden[0].details.get("rule") == "read-over-write"
        (context,) = result.runtime_contexts
        assert context.is_available(overridden[0].output)

    def test_sinks_under_one_label_are_deferred_over_apart(self, backend):
        # Both sorts settle into a sink labelled ``query-las``, and a
        # deferred filter over each registers both in the one context.
        left = make_sort_input(150, backend, name="L")
        right = make_sort_input(150, backend, name="R")
        budget = MemoryBudget.fraction_of(left, 0.10)
        query = (
            Query.scan(left)
            .order_by()
            .filter(lambda r: r[0] < 75, selectivity=0.5)
            .join(
                Query.scan(right)
                .order_by()
                .filter(lambda r: r[0] % 2 == 0, selectivity=0.5)
            )
        )
        planner = CostBasedPlanner(backend, budget, boundary_policy="materialize")
        owner = StoreOwner()
        executor = QueryExecutor(Bufferpool(budget), owner)
        baseline = executor.execute(planner.plan(query))
        plan = planner.plan(query)
        filters = [n for n in plan.root.walk() if n.logical.kind == "Filter"]
        for node in filters:
            node.boundary = dataclasses.replace(node.boundary, kind=BoundaryKind.DEFER)
        result = executor.execute(plan)
        assert result.records == baseline.records
        context = result.runtime_context
        sinks = [result.executions[id(node.children[0])].output for node in filters]
        assert [sink.name for sink in sinks] == ["query-las", "query-las"]
        assert sinks[0] is not sinks[1]
        for node, sink in zip(filters, sinks):
            deferred = result.executions[id(node)].output
            assert context.graph.producer_of(deferred).inputs == (sink,)
            assert context.reconstruction_count(deferred) >= 1
        owner.release()

    def test_a_deferred_query_leaves_no_context_on_its_base_tables(self, backend):
        # Only a collection the runtime must derive points back at its
        # context, so a base table does not keep a finished query's graph
        # (and its deferred collections and predicates) alive.
        left, right = make_join_inputs(150, 1_500, backend)
        with Session(
            backend, MemoryBudget.fraction_of(left, 0.10), boundary_policy="defer"
        ) as session:
            result = session.query(
                Query.scan(left)
                .filter(lambda r: r[0] < 75, selectivity=0.5)
                .join(Query.scan(right))
            )
            executions = result.executions.values()
            assert any(e.details.get("deferred") for e in executions)
            assert len(result.records) == 750
        assert left.context is None
        assert right.context is None


class TestExplainRendering:
    def test_boundary_decisions_render_with_saved_writes(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        session = Session(backend, budget)
        result = session.query(filter_join_group_query(left, right))
        text = result.explain()
        assert "(deferred)" in text or "(pipelined)" in text
        assert "saves est" in text
        assert "/ actual" in text
        assert "wclw" in text

    def test_explain_reports_elapsed_ns_per_node_and_total(self, backend):
        collection = make_sort_input(300, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        result = Session(backend, budget).query(
            Query.scan(collection).order_by()
        )
        lines = result.explain().splitlines()
        assert lines[-1].startswith("total: est ")
        assert lines[-1].endswith(" ns")
        for line in lines[1:-1]:
            assert " ns" in line

    def test_materialize_result_still_settles_the_root(self, backend):
        collection = make_sort_input(300, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        session = Session(backend, budget, materialize_result=True)
        result = session.query(
            Query.scan(collection).order_by()
        )
        assert result.output.is_materialized
        (fragment,) = result.plan.final_step.fragments
        assert fragment.root.boundary.kind is BoundaryKind.MATERIALIZE


class TestPhysicalOperatorProtocol:
    def test_operators_stream_blocks_and_report_io(self, backend):
        collection = make_sort_input(200, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(collection).order_by()
        )
        pool = Bufferpool(budget)
        scan_node = plan.root.children[0]
        scan_op = build_operator(
            scan_node,
            [],
            bufferpool=pool,
            context_factory=lambda: None,
        )
        scan_op.open()
        sort_op = build_operator(
            plan.root,
            [scan_op.output],
            bufferpool=pool,
            context_factory=lambda: None,
        )
        # The executor measures a node's I/O around the protocol calls.
        before = backend.device.snapshot()
        sort_op.open()
        records = [record for block in sort_op.blocks() for record in block]
        sort_op.close()
        io = backend.device.snapshot() - before
        assert records == sorted(collection.records)
        assert isinstance(io, IOSnapshot)
        assert io.cacheline_reads > 0
