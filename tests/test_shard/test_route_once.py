"""An exchange routes a materialized source once per sealed source and partitioner.

The sharded planner splits each materialized exchange source with the
exchange partitioner and keeps the per-destination buckets on the
:class:`ExchangeStep`; it prices each destination's write from them.  A
sealed source keeps its buckets per ``(num_shards, key_index)``
(``PersistentCollection.partitioned``, the bucket memo the joins'
partition passes share), so planning the same exchange again routes
nothing.  The executor's read phase still charges every source a
full scan (``charge_rescan``) -- so the source device is charged exactly
as before -- and hands the planned buckets to the write phase.
Fragment-fed exchanges still route block by block as they read, because
their input does not exist at plan time.

These tests check that:

* each materialized source is routed once at plan time, planning it again
  routes nothing until it is cleared, and executing never routes it (a
  spy on ``repro.hashing.bucket_into``, the one bucketing loop that
  routing and partitioning share);
* executing a plan gives exactly what executing it with the planned
  buckets removed does -- which forces the per-block path -- in records,
  destination contents, per-step and per-shard I/O and the critical path;
* the planned buckets equal a per-record ``hash(key) % num_shards``
  reference;
* a source changed between planning and execution is refused, and a
  cleared, refilled source is routed afresh and placed correctly;
* a dropped source keeps no routing.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import hashing
from repro.exceptions import CollectionStateError
from repro.hashing import partition_of
from repro.query import Query
from repro.shard import (
    HashPartitioner,
    ShardSet,
    ShardedCollection,
    ShardedPlanner,
    ShardedQueryExecutor,
)
from repro.shard.planner import ExchangeStep
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA

BUDGET = MemoryBudget.from_records(45)


def build_sharded(shard_set, name, keys, key_index=0):
    collection = ShardedCollection(
        name,
        shard_set,
        partitioner=HashPartitioner(shard_set.num_shards, key_index=key_index),
    )
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    collection.seal()
    return collection


def exchanges(plan) -> list[ExchangeStep]:
    return [step for step in plan.steps if isinstance(step, ExchangeStep)]


def join_and_group(shard_set):
    """A repartition join and a group-by, each exchanging materialized inputs."""
    left = build_sharded(shard_set, "L", range(60))
    right = build_sharded(shard_set, "R", [key % 60 for key in range(360)], 1)
    return (
        Query.scan(left).join(Query.scan(right)),
        Query.scan(right).group_by(2, {"count": 0}),
    )


def without_planned_buckets(plan):
    """The same plan, every exchange routed block by block at execution."""
    steps = [
        dataclasses.replace(step, buckets=None, routed_from=None)
        if isinstance(step, ExchangeStep)
        else step
        for step in plan.steps
    ]
    return dataclasses.replace(plan, steps=steps)


@pytest.fixture
def routing_calls(monkeypatch):
    """The records of every call of the shared bucketing loop, in call order."""
    calls = []
    bucket_into = hashing.bucket_into

    def spy(appends, records, key_index):
        calls.append(records)
        return bucket_into(appends, records, key_index)

    monkeypatch.setattr(hashing, "bucket_into", spy)
    return calls


@pytest.mark.parametrize("query_index", [0, 1], ids=["join", "group_by"])
def test_materialized_sources_are_routed_once_at_plan_time(
    routing_calls, query_index
):
    shard_set = ShardSet.create(3)
    query = join_and_group(shard_set)[query_index]
    routing_calls.clear()
    plan = ShardedPlanner(shard_set, BUDGET).plan(query)
    sources = [source for step in exchanges(plan) for source in step.sources]
    assert sources
    assert len(routing_calls) == len(sources)
    assert all(
        records is source.records for records, source in zip(routing_calls, sources)
    )

    routing_calls.clear()
    ShardedQueryExecutor(shard_set, Bufferpool(BUDGET)).execute(plan)
    assert routing_calls == []


def test_fragment_fed_exchange_routes_while_reading(routing_calls):
    shard_set = ShardSet.create(3)
    right = build_sharded(shard_set, "R", [key % 60 for key in range(360)], 1)
    query = Query.scan(right).filter(lambda record: record[0] % 3, 0.6).group_by(2)
    routing_calls.clear()
    plan = ShardedPlanner(shard_set, BUDGET).plan(query)
    (step,) = exchanges(plan)
    assert step.sources is None and step.buckets is None
    assert routing_calls == []
    ShardedQueryExecutor(shard_set, Bufferpool(BUDGET)).execute(plan)
    assert len(routing_calls) >= shard_set.num_shards


#: Skewed keys: about half the draws are one hot key.
skewed_keys = st.lists(
    st.one_of(st.just(7), st.integers(min_value=0, max_value=40)), max_size=150
)
cases = dict(
    num_shards=st.integers(min_value=2, max_value=4),
    left_keys=skewed_keys,
    right_keys=skewed_keys,
    left_part=st.integers(min_value=0, max_value=2),
    right_part=st.integers(min_value=0, max_value=2),
    group=st.integers(min_value=0, max_value=2),
    kind=st.sampled_from(["join", "group_by"]),
)


def planned_case(
    num_shards, left_keys, right_keys, left_part, right_part, group, kind
):
    shard_set = ShardSet.create(num_shards)
    left = build_sharded(shard_set, "L", left_keys, left_part)
    if kind == "join":
        right = build_sharded(shard_set, "R", right_keys, right_part)
        query = Query.scan(left).join(Query.scan(right))
    else:
        query = Query.scan(left).group_by(group, {"count": 0, "max": 1})
    plan = ShardedPlanner(shard_set, BUDGET).plan(query)
    assume(exchanges(plan))
    return shard_set, plan


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_planned_buckets_match_the_per_block_path(**case):
    shard_set, plan = planned_case(**case)
    executor = ShardedQueryExecutor(shard_set, Bufferpool(BUDGET))
    runs = []
    for candidate in (plan, without_planned_buckets(plan)):
        result = executor.execute(candidate)
        destinations = [
            [list(dest.records) for dest in step.dests] for step in exchanges(plan)
        ]
        runs.append(
            (
                result.records,
                destinations,
                result.exchange_records,
                result.step_io,
                result.per_shard_io,
                result.critical_path_ns,
                result.critical_path_cachelines,
            )
        )
    planned, per_block = runs
    assert planned == per_block


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_planned_buckets_equal_per_record_routing(**case):
    _, plan = planned_case(**case)
    for step in exchanges(plan):
        partitioner = step.partitioner

        def shard_of(record):
            return partition_of(record[partitioner.key_index], partitioner.num_shards)

        assert step.buckets == [
            [
                [record for record in source.records if shard_of(record) == dest]
                for dest in range(len(step.dests))
            ]
            for source in step.sources
        ]


def test_source_cleared_and_refilled_after_planning_is_refused():
    shard_set = ShardSet.create(2)
    query, _ = join_and_group(shard_set)
    plan = ShardedPlanner(shard_set, BUDGET).plan(query)
    (step,) = exchanges(plan)
    source = step.sources[0]
    records = list(source.records)
    source.clear()
    source.extend(records)
    source.seal()
    executor = ShardedQueryExecutor(shard_set, Bufferpool(BUDGET))
    with pytest.raises(CollectionStateError, match="changed after the query was"):
        executor.execute(plan)
    # Planned again, the same query runs.
    replanned = ShardedPlanner(shard_set, BUDGET).plan(query)
    assert len(executor.execute(replanned).records) == 360


def test_source_appended_to_after_planning_is_refused():
    shard_set = ShardSet.create(2)
    collection = ShardedCollection("U", shard_set)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in range(40))
    plan = ShardedPlanner(shard_set, BUDGET).plan(Query.scan(collection).group_by(1))
    assert exchanges(plan)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in range(40, 80))
    executor = ShardedQueryExecutor(shard_set, Bufferpool(BUDGET))
    with pytest.raises(CollectionStateError, match="plan the query again"):
        executor.execute(plan)


@pytest.mark.parametrize("query_index", [0, 1], ids=["join", "group_by"])
def test_planning_an_unchanged_source_again_routes_nothing(routing_calls, query_index):
    shard_set = ShardSet.create(3)
    query = join_and_group(shard_set)[query_index]
    first = ShardedPlanner(shard_set, BUDGET).plan(query)
    routing_calls.clear()
    again = ShardedPlanner(shard_set, BUDGET).plan(query)
    assert routing_calls == []
    assert [step.buckets for step in exchanges(again)] == [
        step.buckets for step in exchanges(first)
    ]
    executor = ShardedQueryExecutor(shard_set, Bufferpool(BUDGET))
    assert executor.execute(again).records == executor.execute(first).records
    assert routing_calls == []


def test_a_cleared_source_is_routed_again_and_placed_correctly(routing_calls):
    shard_set = ShardSet.create(2)
    query = join_and_group(shard_set)[1]
    (step,) = exchanges(ShardedPlanner(shard_set, BUDGET).plan(query))
    source = step.sources[0]
    # Every record of this shard moves to the group (and route) of key 7.
    records = [record[:2] + (7,) + record[3:] for record in source.records]
    source.clear()
    source.extend(records)
    source.seal()
    routing_calls.clear()
    plan = ShardedPlanner(shard_set, BUDGET).plan(query)
    (replanned,) = exchanges(plan)
    assert routing_calls == [source.records]
    assert replanned.buckets[0] == replanned.partitioner.split(records)
    result = ShardedQueryExecutor(shard_set, Bufferpool(BUDGET)).execute(plan)
    for index, dest in enumerate(replanned.dests):
        assert replanned.partitioner.split(dest.records)[index] == dest.records
    groups = Counter(
        record[2] for shard in replanned.sources for record in shard.records
    )
    assert sorted(result.records) == sorted(groups.items())


def test_a_source_changed_after_planning_is_still_refused_with_a_memo():
    shard_set = ShardSet.create(2)
    query, _ = join_and_group(shard_set)
    ShardedPlanner(shard_set, BUDGET).plan(query)
    plan = ShardedPlanner(shard_set, BUDGET).plan(query)  # from the memo
    (source, *_) = exchanges(plan)[0].sources
    records = list(source.records)
    source.clear()
    source.extend(records)
    source.seal()
    executor = ShardedQueryExecutor(shard_set, Bufferpool(BUDGET))
    with pytest.raises(CollectionStateError, match="changed after the query was"):
        executor.execute(plan)


def test_a_dropped_source_keeps_no_routing():
    shard_set = ShardSet.create(2)
    query = join_and_group(shard_set)[1]
    (step,) = exchanges(ShardedPlanner(shard_set, BUDGET).plan(query))
    source = step.sources[0]
    assert source._derivations
    source.drop()
    assert not source._derivations
