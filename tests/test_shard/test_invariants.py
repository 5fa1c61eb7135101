"""Property-based invariants: sharded execution vs. single-device truth.

For seeded-random record sets, shard counts and partition keys, a sharded
execution must produce exactly the records a single-device execution
produces (as a multiset -- shard interleaving may permute them), and its
per-shard ``IOSnapshot`` deltas must add up to exactly what the shard
devices' counters recorded.
"""

import random

import pytest

from repro.bench.harness import make_environment
from repro.pmem.metrics import sum_snapshots
from repro.query import CostBasedPlanner, Query
from repro.session import Session
from repro.shard import HashPartitioner, ShardSet, ShardedCollection
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import load_collection


def random_keys(rng, count, domain):
    return [rng.randrange(domain) for _ in range(count)]


def run(target, budget, query):
    with Session(target, budget) as session:
        return session.query(query)


def run_with_deltas(shard_set, budget, query):
    """Run a sharded query; also return each shard device's counter delta."""
    before = [device.snapshot() for device in shard_set.devices]
    result = run(shard_set, budget, query)
    after = [device.snapshot() for device in shard_set.devices]
    return result, [a - b for a, b in zip(after, before)]


def build_sharded(shard_set, name, keys, partitioner=None):
    collection = ShardedCollection(name, shard_set, partitioner=partitioner)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    collection.seal()
    return collection


def run_both(seed, num_shards, build_query, key_plan, budget_records=40):
    """Run the same logical query sharded and unsharded; return both results.

    ``key_plan`` maps the seeded RNG to the input key lists; ``build_query``
    receives the loaded collections (sharded or not) and builds the query.
    """
    rng = random.Random(seed)
    key_lists = key_plan(rng)
    budget = MemoryBudget.from_records(budget_records)

    env = make_environment()
    single_inputs = [
        load_collection(
            (WISCONSIN_SCHEMA.make_record(key) for key in keys),
            env.backend,
            f"rel{index}",
        )
        for index, keys in enumerate(key_lists)
    ]
    single = run(env.backend, budget, build_query(single_inputs))

    shard_set = ShardSet.create(num_shards)
    sharded_inputs = [
        build_sharded(shard_set, f"rel{index}", keys)
        for index, keys in enumerate(key_lists)
    ]
    sharded, deltas = run_with_deltas(
        shard_set, budget, build_query(sharded_inputs)
    )
    return single, sharded, deltas


def assert_permutation_equal(single, sharded):
    assert sorted(single.records) == sorted(sharded.records)


def assert_io_accounting_exact(sharded, deltas):
    """Reported per-shard snapshots ARE the device counter deltas."""
    assert sharded.per_shard_io == deltas
    summed = sum_snapshots(deltas)
    assert sharded.io.bytes_read == summed.bytes_read
    assert sharded.io.bytes_written == summed.bytes_written
    assert sharded.io.cacheline_reads == summed.cacheline_reads
    assert sharded.io.cacheline_writes == summed.cacheline_writes


PLAN_BUILDERS = {
    "filter": (
        lambda inputs: Query.scan(inputs[0]).filter(
            lambda record: record[0] % 3 != 0, selectivity=0.66
        ),
        lambda rng: [random_keys(rng, 300, 500)],
    ),
    "join": (
        lambda inputs: Query.scan(inputs[0]).join(Query.scan(inputs[1])),
        lambda rng: [random_keys(rng, 60, 80), random_keys(rng, 400, 80)],
    ),
    "group_by": (
        lambda inputs: Query.scan(inputs[0]).group_by(
            group_index=1,
            aggregates={"count": 1, "sum": 0, "min": 0, "max": 2},
            estimated_groups=64,
        ),
        lambda rng: [random_keys(rng, 350, 400)],
    ),
    "order_by": (
        lambda inputs: Query.scan(inputs[0]).order_by(),
        lambda rng: [random_keys(rng, 320, 1000)],
    ),
    "filter_join_order_by": (
        lambda inputs: Query.scan(inputs[0])
        .filter(lambda record: record[0] < 60, selectivity=0.75)
        .join(Query.scan(inputs[1]))
        .order_by(),
        lambda rng: [random_keys(rng, 50, 80), random_keys(rng, 300, 80)],
    ),
}


@pytest.mark.parametrize("plan_name", sorted(PLAN_BUILDERS))
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [7, 23])
def test_sharded_matches_single_device(plan_name, num_shards, seed):
    build_query, key_plan = PLAN_BUILDERS[plan_name]
    single, sharded, deltas = run_both(seed, num_shards, build_query, key_plan)
    assert_permutation_equal(single, sharded)
    assert_io_accounting_exact(sharded, deltas)


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_order_by_output_is_globally_ordered(seed):
    build_query, key_plan = PLAN_BUILDERS["order_by"]
    _, sharded, _ = run_both(seed, 4, build_query, key_plan)
    keys = [record[0] for record in sharded.records]
    assert keys == sorted(keys)


@pytest.mark.parametrize("num_shards", [2, 4])
def test_random_partition_key_still_exact(num_shards):
    """Partitioning on a non-join attribute forces exchanges; results hold."""
    rng = random.Random(17)
    left_keys = random_keys(rng, 60, 90)
    right_keys = random_keys(rng, 350, 90)
    budget = MemoryBudget.from_records(40)

    env = make_environment()
    single_left = load_collection(
        (WISCONSIN_SCHEMA.make_record(key) for key in left_keys), env.backend, "L"
    )
    single_right = load_collection(
        (WISCONSIN_SCHEMA.make_record(key) for key in right_keys), env.backend, "R"
    )
    single = run(
        env.backend, budget, Query.scan(single_left).join(Query.scan(single_right))
    )

    shard_set = ShardSet.create(num_shards)
    left = build_sharded(
        shard_set, "L", left_keys, partitioner=HashPartitioner(num_shards, key_index=3)
    )
    right = build_sharded(
        shard_set, "R", right_keys, partitioner=HashPartitioner(num_shards, key_index=5)
    )
    sharded, deltas = run_with_deltas(
        shard_set, budget, Query.scan(left).join(Query.scan(right))
    )
    assert_permutation_equal(single, sharded)
    assert_io_accounting_exact(sharded, deltas)
    # Both sides were mispartitioned, so the plan repartitioned both.
    exchange_count = sum(
        1 for step in sharded.plan.steps if hasattr(step, "partitioner")
    )
    assert exchange_count == 2


def test_critical_path_never_exceeds_summed_io():
    build_query, key_plan = PLAN_BUILDERS["filter_join_order_by"]
    _, sharded, _ = run_both(5, 4, build_query, key_plan)
    assert sharded.critical_path_ns <= sharded.io.total_ns + 1e-6
    assert sharded.critical_path_cachelines <= sharded.io.total_cachelines + 1e-6


def test_bufferpool_shares_are_returned_after_execution():
    build_query, key_plan = PLAN_BUILDERS["join"]
    rng = random.Random(9)
    key_lists = key_plan(rng)
    shard_set = ShardSet.create(3)
    inputs = [
        build_sharded(shard_set, f"rel{index}", keys)
        for index, keys in enumerate(key_lists)
    ]
    with Session(shard_set, MemoryBudget.from_records(60)) as session:
        session.query(build_query(inputs))
        assert session.bufferpool.reserved_bytes == 0


@pytest.mark.parametrize("num_shards", [2, 4])
def test_filter_and_project_above_order_by_keep_global_order(num_shards):
    """Order-preserving operators above OrderBy still merge order-wise,
    matching the single-device streaming output exactly."""
    rng = random.Random(13)
    keys = random_keys(rng, 300, 600)
    budget = MemoryBudget.from_records(40)

    def build_query(inputs):
        return (
            Query.scan(inputs[0])
            .order_by()
            .filter(lambda record: record[0] % 2 == 0, selectivity=0.5)
            .project(1, 0, 4)
        )

    env = make_environment()
    single_input = load_collection(
        (WISCONSIN_SCHEMA.make_record(key) for key in keys), env.backend, "T"
    )
    single = run(env.backend, budget, build_query([single_input]))

    shard_set = ShardSet.create(num_shards)
    sharded_input = build_sharded(shard_set, "T", keys)
    sharded = run(shard_set, budget, build_query([sharded_input]))
    # The sort key survives at projected position 1: order is observable
    # and must match the single-device stream.
    sorted_keys = [record[1] for record in sharded.records]
    assert sorted_keys == sorted(sorted_keys)
    assert sorted(single.records) == sorted(sharded.records)


def test_project_dropping_sort_key_degrades_to_concat():
    shard_set = ShardSet.create(3)
    collection = build_sharded(shard_set, "T", list(range(90)))
    budget = MemoryBudget.from_records(30)
    query = Query.scan(collection).order_by().project(1, 2)
    result = run(shard_set, budget, query)
    assert result.plan.merge == ("concat", None)
    assert len(result.records) == 90


def test_single_device_planner_rejects_sharded_plan_object():
    from repro.exceptions import ConfigurationError
    from repro.shard import ShardedPlanner

    shard_set = ShardSet.create(2)
    collection = build_sharded(shard_set, "T", list(range(32)))
    budget = MemoryBudget.from_records(16)
    plan = ShardedPlanner(shard_set, budget).plan(Query.scan(collection).order_by())
    env = make_environment()
    with pytest.raises(ConfigurationError, match="ShardedQueryExecutor"):
        CostBasedPlanner(env.backend, budget).plan(plan)
