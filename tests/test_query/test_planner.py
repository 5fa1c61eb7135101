"""Tests for the cost-based planner."""

import pytest

from repro.bench import experiments
from repro.bench.harness import make_environment
from repro.exceptions import ConfigurationError
from repro.joins import cost as join_cost
from repro.query import CostBasedPlanner, Query
from repro.sorts import cost as sort_cost
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_join_inputs, make_sort_input


def plan_sort(write_ns: float, fraction: float, records: int = 1_000):
    env = make_environment("blocked_memory", write_ns=write_ns)
    collection = make_sort_input(records, env.backend)
    budget = MemoryBudget.fraction_of(collection, fraction)
    planner = CostBasedPlanner(env.backend, budget)
    return env, collection, budget, planner.plan(Query.scan(collection).order_by())


def plan_join(
    write_ns: float, fraction: float, left_records: int = 300, right_records: int = 3_000
):
    env = make_environment("blocked_memory", write_ns=write_ns)
    left, right = make_join_inputs(left_records, right_records, env.backend)
    budget = MemoryBudget.fraction_of(left, fraction)
    planner = CostBasedPlanner(env.backend, budget)
    plan = planner.plan(Query.scan(left).join(Query.scan(right)))
    return env, (left, right), budget, plan


class TestGoldenChoices:
    """Given lambda, sizes and M, the chosen operator is the model argmin."""

    def test_mild_asymmetry_picks_segment_sort(self):
        _, _, _, plan = plan_sort(write_ns=20.0, fraction=0.05)
        assert plan.root.operator == "SegS"

    def test_extreme_asymmetry_picks_lazy_sort(self):
        _, _, _, plan = plan_sort(write_ns=600.0, fraction=0.05)
        assert plan.root.operator == "LaS"

    def test_mild_asymmetry_with_memory_picks_grace_join(self):
        _, _, _, plan = plan_join(write_ns=20.0, fraction=0.10)
        assert plan.root.operator == "GJ"

    def test_extreme_asymmetry_picks_nested_loops(self):
        _, _, _, plan = plan_join(write_ns=600.0, fraction=0.10)
        assert plan.root.operator == "NLJ"

    def test_choice_is_argmin_of_alternatives(self):
        for plan in (
            plan_sort(write_ns=150.0, fraction=0.08)[3],
            plan_join(write_ns=150.0, fraction=0.08)[3],
        ):
            cheapest = min(plan.root.alternatives, key=plan.root.alternatives.get)
            assert plan.root.operator == cheapest


class TestModelPricing:
    """Alternatives are priced with the Section 2 analytical models."""

    def test_sort_alternatives_match_cost_module(self):
        env, collection, budget, plan = plan_sort(write_ns=150.0, fraction=0.08)
        read_ns = env.device.latency.read_ns
        lam = env.device.write_read_ratio
        expected_exms = sort_cost.external_mergesort_cost(
            collection.num_buffers, budget.buffers, read_cost=read_ns, lam=lam
        )
        expected_las = sort_cost.lazy_sort_cost(
            collection.num_buffers, budget.buffers, read_cost=read_ns, lam=lam
        )
        assert plan.root.alternatives["ExMS"] == pytest.approx(expected_exms)
        assert plan.root.alternatives["LaS"] == pytest.approx(expected_las)

    def test_join_alternatives_match_cost_module(self):
        env, (left, right), budget, plan = plan_join(write_ns=150.0, fraction=0.08)
        read_ns = env.device.latency.read_ns
        lam = env.device.write_read_ratio
        expected_nlj = join_cost.nested_loops_cost(
            left.num_buffers,
            right.num_buffers,
            budget.buffers,
            read_cost=read_ns,
            lam=lam,
        )
        expected_gj = join_cost.grace_join_cost(
            left.num_buffers, right.num_buffers, read_cost=read_ns, lam=lam
        )
        assert plan.root.alternatives["NLJ"] == pytest.approx(expected_nlj)
        assert plan.root.alternatives["GJ"] == pytest.approx(expected_gj)

    def test_grace_gated_by_applicability(self):
        env, (left, _), budget, plan = plan_join(write_ns=150.0, fraction=0.02)
        assert not join_cost.grace_applicable(left.num_buffers, budget.buffers)
        assert "GJ" not in plan.root.alternatives


class TestPlanStructure:
    def test_root_is_pipelined_and_legacy_policy_materializes_intermediates(
        self, backend
    ):
        left, right = make_join_inputs(200, 2_000, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        query = (
            Query.scan(left)
            .filter(lambda r: r[0] < 100, selectivity=0.5)
            .join(Query.scan(right))
            .order_by()
        )
        plan = CostBasedPlanner(
            backend, budget, boundary_policy="materialize"
        ).plan(query)
        order_by = plan.root
        join = order_by.children[0]
        filter_node = join.children[0]
        assert not order_by.materialized
        assert join.materialized
        assert filter_node.materialized
        # The default cost policy still pipelines/defers at least one edge
        # on this plan shape (the filter edge beats its settlement write).
        costed = CostBasedPlanner(backend, budget).plan(query)
        non_root = [
            node
            for node in costed.root.walk()
            if node is not costed.root and node.children
        ]
        assert any(not node.materialized for node in non_root)

    def test_join_puts_smaller_estimated_input_on_build_side(self, backend):
        left, right = make_join_inputs(200, 2_000, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(right).join(Query.scan(left))
        )
        assert plan.root.extra["swapped"] is True
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(left).join(Query.scan(right))
        )
        assert plan.root.extra["swapped"] is False

    def test_filter_scales_cardinality_estimates(self, backend):
        collection = make_sort_input(1_000, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(collection).filter(lambda r: True, selectivity=0.25).order_by()
        )
        assert plan.root.est_records == pytest.approx(250.0)

    def test_total_estimated_cost_sums_nodes(self, backend):
        collection = make_sort_input(500, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(collection).filter(lambda r: True).order_by()
        )
        assert plan.total_estimated_cost_ns == pytest.approx(
            sum(node.est_cost_ns for node in plan.root.walk())
        )

    def test_explain_lists_every_node(self, backend):
        left, right = make_join_inputs(150, 1_500, backend)
        budget = MemoryBudget.fraction_of(left, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(left).join(Query.scan(right)).order_by()
        )
        text = plan.explain()
        assert "OrderBy" in text and "Join" in text
        assert text.count("Scan[") == 2
        assert "est" in text


class TestGroupByChoice:
    def test_few_groups_pick_hash_aggregation(self, backend):
        collection = make_sort_input(1_000, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(collection).group_by(1, estimated_groups=4)
        )
        assert plan.root.operator == "HashAgg"

    def test_many_groups_pick_sorted_aggregation(self, backend):
        collection = make_sort_input(1_000, backend)
        budget = MemoryBudget.fraction_of(collection, 0.02)
        plan = CostBasedPlanner(backend, budget).plan(
            Query.scan(collection).group_by(1, estimated_groups=1_000)
        )
        assert plan.root.operator.startswith("SortAgg[")


class TestPlannerTracksMeasurements:
    """The planner's choice follows the measured-best fixed algorithm."""

    def test_sort_grid_match_rate(self):
        rows = experiments.planner_vs_fixed_sort(
            num_records=800,
            write_latencies=(20.0, 150.0, 600.0),
            memory_fractions=(0.05, 0.15),
        )
        assert experiments.planner_match_rate(rows) >= 0.8
        assert all(row["regret"] < 0.15 for row in rows)

    def test_join_grid_match_rate(self):
        rows = experiments.planner_vs_fixed_join(
            left_records=240,
            right_records=2_400,
            write_latencies=(20.0, 150.0, 600.0),
            memory_fractions=(0.05, 0.15),
        )
        assert experiments.planner_match_rate(rows) >= 0.8
        assert all(row["regret"] < 0.15 for row in rows)


class TestPlannerValidation:
    def test_plan_rejects_non_queries(self, backend):
        budget = MemoryBudget.from_records(64)
        with pytest.raises(ConfigurationError):
            CostBasedPlanner(backend, budget).plan("select * from t")
