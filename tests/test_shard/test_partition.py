"""Unit tests for the partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.shard.partition import (
    HashPartitioner,
    RangePartitioner,
    multiplicative_hash,
)


class TestHashPartitioner:
    def test_routes_every_key_in_range(self):
        partitioner = HashPartitioner(4)
        shards = {partitioner.shard_of_key(key) for key in range(1000)}
        assert shards == {0, 1, 2, 3}

    def test_deterministic(self):
        a = HashPartitioner(8)
        b = HashPartitioner(8)
        assert [a.shard_of_key(k) for k in range(100)] == [
            b.shard_of_key(k) for k in range(100)
        ]

    def test_shard_of_reads_key_index(self):
        partitioner = HashPartitioner(4, key_index=2)
        record = (99, 98, 7, 96)
        assert partitioner.shard_of(record) == partitioner.shard_of_key(7)

    def test_routes_like_same_default_hash(self):
        assert HashPartitioner(4).routes_like(HashPartitioner(4, key_index=3))

    def test_routes_like_rejects_other_shard_count(self):
        assert not HashPartitioner(4).routes_like(HashPartitioner(5))

    def test_routes_like_rejects_other_hash_fn(self):
        assert not HashPartitioner(4).routes_like(
            HashPartitioner(4, hash_fn=lambda key: 0)
        )

    def test_with_key_index_preserves_routing(self):
        base = HashPartitioner(4, hash_fn=lambda key: key * 3)
        moved = base.with_key_index(5)
        assert moved.key_index == 5
        assert base.routes_like(moved)

    def test_uses_join_layer_hash(self):
        partitioner = HashPartitioner(7)
        assert partitioner.shard_of_key(42) == multiplicative_hash(42) % 7

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_boundaries_split_the_domain(self):
        partitioner = RangePartitioner([10, 20])
        assert partitioner.num_shards == 3
        assert partitioner.shard_of_key(-5) == 0
        assert partitioner.shard_of_key(9) == 0
        assert partitioner.shard_of_key(10) == 1
        assert partitioner.shard_of_key(19) == 1
        assert partitioner.shard_of_key(20) == 2
        assert partitioner.shard_of_key(10_000) == 2

    def test_single_shard_no_boundaries(self):
        partitioner = RangePartitioner([])
        assert partitioner.num_shards == 1
        assert partitioner.shard_of_key(123) == 0

    def test_boundaries_must_ascend(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner([5, 5])
        with pytest.raises(ConfigurationError):
            RangePartitioner([9, 3])

    def test_routes_like(self):
        assert RangePartitioner([10, 20]).routes_like(
            RangePartitioner([10, 20], key_index=4)
        )
        assert not RangePartitioner([10, 20]).routes_like(RangePartitioner([10, 21]))
        assert not RangePartitioner([10]).routes_like(HashPartitioner(2))

    def test_with_key_index(self):
        moved = RangePartitioner([10], key_index=0).with_key_index(3)
        assert moved.key_index == 3
        assert moved.boundaries == (10,)


# --------------------------------------------------------------------- #
# Batch routing: shards_of(records) == [shard_of(r) for r in records].
# --------------------------------------------------------------------- #
_keys = st.integers(min_value=-(2**40), max_value=2**40)
_records = st.lists(st.tuples(_keys, _keys, _keys), max_size=200)


def _assert_batch_routing_matches(partitioner, records):
    assert partitioner.shards_of(records) == [
        partitioner.shard_of(record) for record in records
    ]
    buckets = [[] for _ in range(partitioner.num_shards)]
    for record in records:
        buckets[partitioner.shard_of(record)].append(record)
    assert partitioner.split(records) == buckets
    assert partitioner.split(iter(records)) == buckets


@settings(max_examples=60, deadline=None)
@given(
    records=_records,
    num_shards=st.integers(min_value=1, max_value=9),
    key_index=st.sampled_from([0, 1]),
    custom_hash=st.booleans(),
)
def test_hash_shards_of_matches_shard_of(records, num_shards, key_index, custom_hash):
    hash_fn = (lambda key: key * 31 + 7) if custom_hash else None
    partitioner = HashPartitioner(num_shards, key_index=key_index, hash_fn=hash_fn)
    _assert_batch_routing_matches(partitioner, records)


@settings(max_examples=60, deadline=None)
@given(
    records=_records,
    boundaries=st.sets(_keys, max_size=6).map(sorted),
    key_index=st.sampled_from([0, 1]),
    data=st.data(),
)
def test_range_shards_of_matches_shard_of(records, boundaries, key_index, data):
    if boundaries:
        # Records keyed exactly on a split point route to the upper shard.
        on_boundary = data.draw(
            st.lists(st.sampled_from(boundaries), max_size=20)
        )
        records = records + [(key, key, key) for key in on_boundary]
    partitioner = RangePartitioner(boundaries, key_index=key_index)
    _assert_batch_routing_matches(partitioner, records)


@pytest.mark.parametrize(
    "partitioner",
    [
        HashPartitioner(3),
        HashPartitioner(3, hash_fn=lambda key: 0),
        RangePartitioner([10, 20]),
    ],
)
def test_shards_of_empty_batch(partitioner):
    assert partitioner.shards_of([]) == []
    assert partitioner.split([]) == [[], [], []]
