"""Executor correctness against brute-force in-memory evaluation."""

import inspect

import pytest

from repro.exceptions import BufferpoolExhaustedError, CollectionStateError
from repro.query import CostBasedPlanner, Query, QueryExecutor
from repro.session import Session
from repro.shard import ShardedQueryExecutor
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import CollectionStatus, StoreOwner
from repro.workloads.generator import make_join_inputs


def brute_force_join(left_records, right_records):
    """Reference equi-join: every (l, r) pair with matching keys."""
    by_key = {}
    for record in left_records:
        by_key.setdefault(record[0], []).append(record)
    return [
        l + r
        for r in right_records
        for l in by_key.get(r[0], [])
    ]


class TestWisconsinCorrectness:
    def test_order_by_matches_sorted(self, backend, small_sort_input, sort_budget):
        result = Session(backend, sort_budget).query(Query.scan(small_sort_input).order_by())
        assert result.records == sorted(small_sort_input.records)
        assert result.output.is_sorted()

    def test_order_by_non_key_attribute(self, backend, small_sort_input, sort_budget):
        result = Session(backend, sort_budget).query(Query.scan(small_sort_input).order_by(key_index=3))
        assert [r[3] for r in result.records] == sorted(
            r[3] for r in small_sort_input.records
        )

    def test_filter_project(self, backend, small_sort_input, sort_budget):
        query = (
            Query.scan(small_sort_input)
            .filter(lambda r: r[0] % 2 == 0, selectivity=0.5)
            .project(0, 4)
        )
        result = Session(backend, sort_budget).query(query)
        expected = [
            (r[0], r[4]) for r in small_sort_input.records if r[0] % 2 == 0
        ]
        assert result.records == expected

    def test_filter_join_order_by_matches_brute_force(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        query = (
            Query.scan(left)
            .filter(lambda r: r[0] < 75, selectivity=0.5)
            .join(Query.scan(right))
            .order_by()
        )
        result = Session(backend, budget).query(query)
        expected = brute_force_join(
            [r for r in left.records if r[0] < 75], right.records
        )
        assert sorted(result.records) == sorted(expected)
        assert result.output.is_sorted()

    def test_swapped_join_preserves_attribute_order(self, backend):
        # The bigger input on the left forces the planner to swap the build
        # side; output records must still read left + right.
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        query = Query.scan(right).join(Query.scan(left))
        plan = CostBasedPlanner(backend, budget).plan(query)
        assert plan.root.extra["swapped"] is True
        result = Session(backend, budget).query(query)
        expected = brute_force_join(right.records, left.records)
        assert sorted(result.records) == sorted(expected)

    @pytest.mark.parametrize("estimated_groups", [4, 400])
    def test_group_by_matches_brute_force(
        self, backend, small_sort_input, sort_budget, estimated_groups
    ):
        # Small and large group estimates exercise both physical operators.
        query = Query.scan(small_sort_input).group_by(
            1, {"count": 1, "sum": 0}, estimated_groups=estimated_groups
        )
        result = Session(backend, sort_budget).query(query)
        expected = {}
        for record in small_sort_input.records:
            count, total = expected.get(record[1], (0, 0))
            expected[record[1]] = (count + 1, total + record[0])
        assert sorted(result.records) == sorted(
            (key, count, total) for key, (count, total) in expected.items()
        )


class TestExecutionReporting:
    def test_explain_reports_estimate_and_actual_for_every_node(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        query = (
            Query.scan(left)
            .filter(lambda r: r[0] < 75, selectivity=0.5)
            .join(Query.scan(right))
            .order_by()
        )
        result = Session(backend, budget).query(query)
        lines = result.explain().splitlines()
        # First line is the plan header, last the total summary.
        node_lines = lines[1:-1]
        assert len(node_lines) == 5  # OrderBy, Join, Filter, Scan, Scan
        for line in node_lines:
            assert "est" in line
            assert "actual" in line
            assert "ns" in line
        assert lines[-1].startswith("total: est ")
        assert "actual" in lines[-1]

    def test_per_node_io_sums_to_total(self, backend, small_sort_input, sort_budget):
        result = Session(backend, sort_budget).query(Query.scan(small_sort_input).order_by())
        per_node = sum(
            execution.io.total_ns for execution in result.executions.values()
        )
        assert per_node == pytest.approx(result.io.total_ns)

    def test_root_output_stays_in_dram_by_default(
        self, backend, small_sort_input, sort_budget
    ):
        result = Session(backend, sort_budget).query(Query.scan(small_sort_input).order_by())
        assert result.output.is_memory

    def test_materialize_result_charges_output_writes(
        self, backend, small_sort_input, sort_budget
    ):
        pipelined = Session(backend, sort_budget).query(Query.scan(small_sort_input).order_by())
        materialized = Session(
            backend, sort_budget, materialize_result=True
        ).query(Query.scan(small_sort_input).order_by())
        assert materialized.output.is_materialized
        assert (
            materialized.io.cacheline_writes > pipelined.io.cacheline_writes
        )
        assert materialized.records == pipelined.records


class TestBudgetEnforcement:
    def test_operators_share_the_executor_bufferpool(
        self, backend, small_sort_input, sort_budget
    ):
        plan = CostBasedPlanner(backend, sort_budget).plan(
            Query.scan(small_sort_input).order_by()
        )
        pool = Bufferpool(sort_budget)
        owner = StoreOwner()
        QueryExecutor(pool, owner).execute(plan)
        owner.release()
        # Workspaces were reserved during the run and fully released after.
        assert pool.reserved_bytes == 0

    def test_exhausted_shared_pool_fails_loudly(
        self, backend, small_sort_input, sort_budget
    ):
        plan = CostBasedPlanner(backend, sort_budget).plan(
            Query.scan(small_sort_input).order_by()
        )
        pool = Bufferpool(sort_budget)
        pool.reserve(1, owner="something-else")
        owner = StoreOwner()
        with pytest.raises(BufferpoolExhaustedError):
            QueryExecutor(pool, owner).execute(plan)
        owner.release()


class TestExecutorContract:
    @pytest.mark.parametrize("executor", [QueryExecutor, ShardedQueryExecutor])
    def test_every_argument_is_required(self, executor):
        """An executor runs what its caller hands it: no budget to plan
        with, no pool or store owner of its own to fall back on."""
        parameters = inspect.signature(executor).parameters.values()
        assert "budget" not in [parameter.name for parameter in parameters]
        assert all(
            parameter.default is inspect.Parameter.empty for parameter in parameters
        )

    @pytest.mark.parametrize("shape", ["sort", "join", "group-by"])
    def test_the_owner_adopts_every_store_an_execution_creates(
        self, any_backend, shape
    ):
        """Every sink a materialized plan writes goes to the caller's
        owner: releasing it leaves exactly the loaded stores and bytes."""
        left, right = make_join_inputs(150, 1_500, any_backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        filtered = Query.scan(left).filter(
            lambda r: r[0] % 2 == 0, selectivity=0.5
        )
        query = {
            "sort": filtered.order_by(),
            "join": filtered.join(Query.scan(right)),
            "group-by": filtered.join(Query.scan(right)).group_by(
                1, {"count": 0, "sum": 1}
            ),
        }[shape]
        plan = CostBasedPlanner(
            any_backend, budget, boundary_policy="materialize"
        ).plan(query)
        loaded = (any_backend.stores(), any_backend.device.allocated_bytes)
        owner = StoreOwner()
        QueryExecutor(Bufferpool(budget), owner).execute(plan)
        assert len(any_backend.stores()) > len(loaded[0])
        owner.release()
        assert (any_backend.stores(), any_backend.device.allocated_bytes) == loaded


class TestCannedCliQueries:
    def test_query_subcommand_runs(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "query",
                    "join-sort",
                    "--left",
                    "120",
                    "--right",
                    "1200",
                    "--records",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "physical plan" in out
        assert "actual" in out

    def test_list_includes_queries(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "query" in capsys.readouterr().out


class TestFinishedQueries:
    def test_a_finished_querys_intermediates_are_dropped(self, backend):
        """A query drops its sinks when it ends: scanning one raises a
        state error naming it, not a backend lookup error."""
        left, right = make_join_inputs(150, 1_500, backend)
        query = (
            Query.scan(left)
            .filter(lambda r: r[0] < 75, selectivity=0.5)
            .join(Query.scan(right))
            .order_by()
        )
        result = Session(backend, MemoryBudget.fraction_of(left, 0.10)).query(
            query, boundary_policy="materialize"
        )
        (sink,) = [
            execution.output
            for execution in result.executions.values()
            if execution.node.operator == "Filter"
        ]
        assert sink.status is CollectionStatus.DROPPED
        with pytest.raises(CollectionStateError, match=repr(sink.name)):
            list(sink.scan())
        # The result stays readable.
        assert list(result.output.scan()) == result.records
