"""Planner/executor edge cases the sharded path exposes."""

import random

import pytest

from repro.bench.harness import make_environment
from repro.exceptions import ConfigurationError
from repro.query import CostBasedPlanner, Query
from repro.session import Session
from repro.shard import (
    HashPartitioner,
    ShardSet,
    ShardedCollection,
    ShardedPhysicalPlan,
    ShardedPlanner,
)
from repro.shard.planner import ExchangeStep, FragmentStep
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import load_collection
from tests.test_shard.routed_keys import keys_routed_to


def build_sharded(shard_set, name, keys, partitioner=None):
    collection = ShardedCollection(name, shard_set, partitioner=partitioner)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    collection.seal()
    return collection


def single_device_records(key_lists, build_query, budget):
    env = make_environment()
    inputs = [
        load_collection(
            (WISCONSIN_SCHEMA.make_record(key) for key in keys),
            env.backend,
            f"rel{index}",
        )
        for index, keys in enumerate(key_lists)
    ]
    with Session(env.backend, budget) as session:
        return session.query(build_query(inputs)).records


class TestEmptyShard:
    def test_query_with_empty_shards_completes(self):
        # Every key is a multiple of 4 routed to shard 0: the other
        # shards of a 4-way split stay empty.
        shard_set = ShardSet.create(4)
        partitioner = HashPartitioner(4)
        keys = keys_routed_to({0}, 4, 120, keys=range(0, 10**6, 4))
        collection = build_sharded(shard_set, "T", keys, partitioner)
        assert [len(shard) for shard in collection.shards] == [120, 0, 0, 0]
        budget = MemoryBudget.from_records(30)
        query = (
            Query.scan(collection)
            .filter(lambda record: record[0] % 8 == 0, selectivity=0.5)
            .order_by()
        )
        with Session(shard_set, budget) as session:
            result = session.query(query)
        expected = single_device_records([keys], lambda inputs: (
            Query.scan(inputs[0])
            .filter(lambda record: record[0] % 8 == 0, selectivity=0.5)
            .order_by()
        ), budget)
        assert sorted(result.records) == sorted(expected)

    def test_join_with_empty_shards(self):
        # Every key routes to shard 0 or 2: shards 1 and 3 stay empty.
        keys = keys_routed_to({0, 2}, 4, 40)
        shard_set = ShardSet.create(4)
        left = build_sharded(shard_set, "L", keys, HashPartitioner(4))
        right = build_sharded(
            shard_set,
            "R",
            [keys[index % 40] for index in range(240)],
            HashPartitioner(4),
        )
        assert [len(shard) for shard in left.shards][1::2] == [0, 0]
        assert [len(shard) for shard in right.shards][1::2] == [0, 0]
        budget = MemoryBudget.from_records(40)
        with Session(shard_set, budget) as session:
            result = session.query(Query.scan(left).join(Query.scan(right)))
        assert len(result.records) == 240


class TestSingleShardSkew:
    def test_all_records_on_one_shard(self):
        keys = keys_routed_to({0}, 4, 50)
        shard_set = ShardSet.create(4)
        partitioner = HashPartitioner(4)
        left = build_sharded(shard_set, "L", keys, partitioner)
        right = build_sharded(
            shard_set, "R", [keys[index % 50] for index in range(300)], partitioner
        )
        assert [len(shard) for shard in left.shards] == [50, 0, 0, 0]
        budget = MemoryBudget.from_records(40)
        before = [device.snapshot() for device in shard_set.devices]
        with Session(shard_set, budget) as session:
            result = session.query(Query.scan(left).join(Query.scan(right)))
        after = [device.snapshot() for device in shard_set.devices]
        assert len(result.records) == 300
        # The plan stays partition-wise (shared routing), and the skew is
        # visible in the accounting: only shard 0 does any work.
        deltas = [a - b for a, b in zip(after, before)]
        assert deltas[0].total_cachelines > 0
        assert all(delta.total_cachelines == 0 for delta in deltas[1:])
        assert result.critical_path_cachelines == pytest.approx(
            result.io.total_cachelines
        )


class TestSkewedJoinFanout:
    def test_one_hot_key_carries_all_matches(self):
        rng = random.Random(31)
        left_keys = list(range(30))
        right_keys = [7] * 260 + [rng.randrange(30) for _ in range(40)]
        budget = MemoryBudget.from_records(40)
        shard_set = ShardSet.create(4)
        left = build_sharded(shard_set, "L", left_keys)
        right = build_sharded(shard_set, "R", right_keys)
        with Session(shard_set, budget) as session:
            result = session.query(Query.scan(left).join(Query.scan(right)))
        expected = single_device_records(
            [left_keys, right_keys],
            lambda inputs: Query.scan(inputs[0]).join(Query.scan(inputs[1])),
            budget,
        )
        assert sorted(result.records) == sorted(expected)
        # The hot key's shard dominates the critical path.
        hot_shard = left.partitioner.split([(7,)]).index([(7,)])
        per_shard = [io.total_cachelines for io in result.per_shard_io]
        assert max(per_shard) == per_shard[hot_shard]


class TestTinyBudgets:
    def test_budget_too_small_for_hash_tables_falls_back(self):
        """A shard share too small for any hash table must degrade, not raise."""
        num_shards = 4
        shard_set = ShardSet.create(num_shards)
        left = build_sharded(shard_set, "L", list(range(48)))
        right = build_sharded(shard_set, "R", [key % 48 for key in range(192)])
        # Two records of DRAM per shard: no hash table fits, block nested
        # loops still runs with a one-record block.
        budget = MemoryBudget.from_records(2 * num_shards)
        with Session(shard_set, budget) as session:
            result = session.query(Query.scan(left).join(Query.scan(right)))
        assert len(result.records) == 192
        chosen = {
            fragment.root.operator
            for fragment in result.plan.final_step.fragments
        }
        assert chosen == {"NLJ"}

    def test_tiny_budget_sort_still_completes(self):
        num_shards = 3
        shard_set = ShardSet.create(num_shards)
        collection = build_sharded(shard_set, "T", list(range(90)))
        budget = MemoryBudget.from_records(2 * num_shards)
        with Session(shard_set, budget) as session:
            result = session.query(Query.scan(collection).order_by())
        keys = [record[0] for record in result.records]
        assert keys == sorted(keys)


class TestShardedDispatch:
    def test_cost_based_planner_rejects_sharded_collections(self):
        shard_set = ShardSet.create(2)
        collection = build_sharded(shard_set, "T", list(range(64)))
        env = make_environment()
        budget = MemoryBudget.from_records(16)
        with pytest.raises(ConfigurationError, match="ShardedPlanner"):
            CostBasedPlanner(env.backend, budget).plan(
                Query.scan(collection).order_by()
            )

    def test_sharded_planner_plans_a_one_shard_fragment(self):
        env = make_environment()
        plain = load_collection(
            (WISCONSIN_SCHEMA.make_record(key) for key in range(64)),
            env.backend,
            "T",
        )
        budget = MemoryBudget.from_records(16)
        plan = ShardedPlanner(ShardSet([env.backend]), budget).plan(
            Query.scan(plain).order_by()
        )
        assert isinstance(plan, ShardedPhysicalPlan)
        assert plan.num_shards == 1
        assert [type(step) for step in plan.steps] == [FragmentStep]
        single = CostBasedPlanner(env.backend, budget).plan(
            Query.scan(plain).order_by()
        )
        assert plan.explain() == single.explain()

    def test_mixed_shard_sets_rejected(self):
        set_a = ShardSet.create(2)
        set_b = ShardSet.create(2)
        left = build_sharded(set_a, "L", list(range(16)))
        right = build_sharded(set_b, "R", list(range(16)))
        budget = MemoryBudget.from_records(16)
        with pytest.raises(ConfigurationError, match="different shard set"):
            ShardedPlanner(set_a, budget).plan(
                Query.scan(left).join(Query.scan(right))
            )

    def test_unsharded_scan_in_sharded_plan_rejected(self):
        shard_set = ShardSet.create(2)
        sharded = build_sharded(shard_set, "L", list(range(16)))
        env = make_environment()
        plain = load_collection(
            (WISCONSIN_SCHEMA.make_record(key) for key in range(16)),
            env.backend,
            "R",
        )
        budget = MemoryBudget.from_records(16)
        with pytest.raises(ConfigurationError, match="not sharded"):
            ShardedPlanner(shard_set, budget).plan(
                Query.scan(sharded).join(Query.scan(plain))
            )

    def test_exchange_pricing_uses_actual_shard_counts_under_skew(self):
        # Every record lands on shard 0, but the group attribute routes
        # them all to one destination: with actual routing the write-side
        # estimate is fully concentrated instead of split 1/N.
        shard_set = ShardSet.create(2)
        collection = build_sharded(shard_set, "S", list(range(0, 64, 2)))
        budget = MemoryBudget.from_records(16)
        plan = ShardedPlanner(shard_set, budget).plan(
            Query.scan(collection).group_by(group_index=2).node
        )
        exchanges = [
            step for step in plan.steps if isinstance(step, ExchangeStep)
        ]
        assert exchanges, "a non-key group attribute must force an exchange"
        exchange = exchanges[0]
        routed = list(map(len, exchange.partitioner.split(collection.records)))
        total = sum(routed)
        expected = [
            routed[i] / total * sum(exchange.est_write_ns)
            for i in range(2)
        ]
        for est, want in zip(exchange.est_write_ns, expected):
            assert est == pytest.approx(want, rel=0.05)
        # The destination scans carry the routed counts, not total/N.
        assert exchange.est_write_ns[0] != pytest.approx(
            exchange.est_write_ns[1]
        ) or routed[0] == routed[1]
