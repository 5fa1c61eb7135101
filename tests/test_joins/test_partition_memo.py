"""A sealed collection keeps its hash buckets, and only while it cannot change.

``PersistentCollection.partitioned(num_partitions, key_index)`` buckets a
collection's records with the one hash of ``repro.hashing``.  A sealed
collection keeps the buckets of its last ``DERIVATION_MEMO_ENTRIES`` pairs,
least recently used evicted first, until ``clear()`` or ``drop()``; an
unsealed one keeps none.  The shard planner's exchanges and the joins'
partition passes read the same memo.  A spy on ``repro.hashing.bucket_into``,
the one bucketing loop, shows which records are bucketed when.
"""

from __future__ import annotations

import pytest

from repro import hashing
from repro.hashing import partition_of
from repro.joins import GraceJoin
from repro.query import Query
from repro.shard import HashPartitioner, ShardSet, ShardedCollection, ShardedPlanner
from repro.shard.planner import ExchangeStep
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import DERIVATION_MEMO_ENTRIES, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection


@pytest.fixture
def bucketed(monkeypatch):
    """The records of every call of the shared bucketing loop, in call order."""
    calls = []
    bucket_into = hashing.bucket_into

    def spy(appends, records, key_index):
        calls.append(records)
        return bucket_into(appends, records, key_index)

    monkeypatch.setattr(hashing, "bucket_into", spy)
    return calls


def times_bucketed(calls, collection):
    return sum(records is collection.records for records in calls)


def bucket_keys(collection):
    """The memo's keys in LRU order, each a ``(num_partitions, key_index)``
    bucketing."""
    assert all(derive is hashing.buckets_of for derive, _ in collection._derivations)
    return [args for _, args in collection._derivations]


def reference_buckets(records, num_partitions, key_index=0):
    return [
        [
            record
            for record in records
            if partition_of(record[key_index], num_partitions) == p
        ]
        for p in range(num_partitions)
    ]


def unsealed(backend, keys, name):
    collection = PersistentCollection(name, backend)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    return collection


def test_two_grace_joins_over_one_sealed_input_bucket_it_once(backend, bucketed):
    left = build_collection(backend, range(200), "T")
    right = build_collection(backend, [key % 200 for key in range(1000)], "V")
    join = GraceJoin(backend, MemoryBudget.from_records(30))
    first, second = join.join(left, right), join.join(left, right)
    assert first.partitions > 1
    assert first.output.records == second.output.records
    assert times_bucketed(bucketed, left) == 1
    assert times_bucketed(bucketed, right) == 1
    assert bucket_keys(right) == [(first.partitions, 0)]


def test_an_unsealed_input_is_bucketed_on_every_run_and_keeps_no_memo(
    backend, bucketed
):
    left = build_collection(backend, range(200), "T")
    right = unsealed(backend, [key % 200 for key in range(1000)], "V")
    join = GraceJoin(backend, MemoryBudget.from_records(30))
    first, second = join.join(left, right), join.join(left, right)
    assert first.output.records == second.output.records
    assert times_bucketed(bucketed, right) == 2
    assert right._derivations is None
    assert right.partitioned(3, 0) == reference_buckets(right.records, 3)
    assert right._derivations is None


def test_clear_and_drop_empty_the_memo(backend):
    collection = build_collection(backend, range(100), "T")
    collection.partitioned(3, 0)
    assert collection._derivations
    collection.clear()
    assert collection._derivations is None
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in range(5, 50))
    collection.seal()
    assert collection.partitioned(3, 0) == reference_buckets(collection.records, 3)
    assert collection._derivations
    collection.drop()
    assert collection._derivations is None


def test_an_exchange_and_a_join_on_the_same_key_share_one_entry(bucketed):
    shard_set = ShardSet.create(2)
    grouped = ShardedCollection(
        "R", shard_set, partitioner=HashPartitioner(2, key_index=1)
    )
    grouped.extend(WISCONSIN_SCHEMA.make_record(key) for key in range(150))
    grouped.seal()
    plan = ShardedPlanner(shard_set, MemoryBudget.from_records(45)).plan(
        Query.scan(grouped).group_by(0, {"count": 0})
    )
    (exchange,) = [step for step in plan.steps if isinstance(step, ExchangeStep)]
    shard = grouped.shards[0]
    assert shard in exchange.sources
    assert times_bucketed(bucketed, shard) == 1
    assert bucket_keys(shard) == [(2, 0)]

    backend = shard_set.backends[0]
    other = build_collection(backend, range(150), "V")
    result = GraceJoin(backend, MemoryBudget.from_records(60)).join(shard, other)
    assert result.partitions == 2
    assert len(result.output.records) == len(shard.records)
    assert times_bucketed(bucketed, shard) == 1
    assert bucket_keys(shard) == [(2, 0)]


def test_one_more_partition_count_than_the_bound_evicts_the_oldest(backend, bucketed):
    collection = build_collection(backend, [key * 3 for key in range(300)], "T")
    counts = range(1, DERIVATION_MEMO_ENTRIES + 2)
    for num_partitions in counts:
        assert collection.partitioned(num_partitions, 0) == reference_buckets(
            collection.records, num_partitions
        )
    assert bucket_keys(collection) == [(n, 0) for n in counts[1:]]
    # The newest entries are served from the memo; a hit makes an entry the
    # most recently used.
    bucketed.clear()
    assert collection.partitioned(2, 0) == reference_buckets(collection.records, 2)
    assert bucketed == []
    # The evicted count is bucketed again, correctly, and evicts the least
    # recently used entry in turn.
    assert collection.partitioned(1, 0) == reference_buckets(collection.records, 1)
    assert times_bucketed(bucketed, collection) == 1
    assert bucket_keys(collection) == [(n, 0) for n in [*counts[3:], 2, 1]]
