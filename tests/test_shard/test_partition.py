"""Unit tests for the hash partitioner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.joins.common import partition_of
from repro.shard.partition import HashPartitioner


def keyed(keys):
    return [(key,) for key in keys]


def alone(record, shard, num_shards):
    """``split([record])``: the record in its shard's bucket, the rest empty."""
    return [[record] if index == shard else [] for index in range(num_shards)]


class TestHashPartitioner:
    def test_routes_every_key_in_range(self):
        partitioner = HashPartitioner(4)
        buckets = partitioner.split(keyed(range(1000)))
        assert len(buckets) == 4 and all(buckets)

    def test_deterministic(self):
        a = HashPartitioner(8)
        b = HashPartitioner(8)
        records = keyed(range(100))
        assert a.split(records) == b.split(records)

    def test_split_reads_key_index(self):
        partitioner = HashPartitioner(4, key_index=2)
        record = (99, 98, 7, 96)
        assert partitioner.split([record]) == alone(record, partition_of(7, 4), 4)

    def test_routes_like_same_default_hash(self):
        assert HashPartitioner(4).routes_like(HashPartitioner(4, key_index=3))

    def test_routes_like_rejects_other_shard_count(self):
        assert not HashPartitioner(4).routes_like(HashPartitioner(5))

    def test_with_key_index_preserves_routing(self):
        base = HashPartitioner(4)
        moved = base.with_key_index(5)
        assert moved.key_index == 5
        assert base.routes_like(moved)

    def test_routes_like_rejects_a_non_partitioner(self):
        assert not HashPartitioner(4).routes_like(object())

    def test_with_key_index_splits_on_the_moved_attribute(self):
        records = [(key, 1000 - key) for key in range(50)]
        moved = HashPartitioner(4).with_key_index(1)
        assert moved.split(records) == [
            [record for record in records if partition_of(record[1], 4) == shard]
            for shard in range(4)
        ]

    def test_uses_join_layer_hash(self):
        partitioner = HashPartitioner(7)
        assert partitioner.split([(42,)]) == alone((42,), partition_of(42, 7), 7)

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)

    def test_invalid_key_index(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(4, key_index=-1)


# --------------------------------------------------------------------- #
# Batch routing: split against hash(key) % num_shards.
# --------------------------------------------------------------------- #
_keys = st.integers(min_value=-(2**40), max_value=2**40)
_records = st.lists(st.tuples(_keys, _keys, _keys), max_size=200)


@settings(max_examples=60, deadline=None)
@given(
    records=_records,
    num_shards=st.integers(min_value=1, max_value=9),
    key_index=st.sampled_from([0, 1]),
)
def test_split_matches_per_record_hash(records, num_shards, key_index):
    partitioner = HashPartitioner(num_shards, key_index=key_index)
    buckets = [[] for _ in range(num_shards)]
    for record in records:
        buckets[partition_of(record[key_index], num_shards)].append(record)
    assert partitioner.split(records) == buckets
    assert partitioner.split(iter(records)) == buckets


@pytest.mark.parametrize(
    "partitioner",
    [
        HashPartitioner(3),
        HashPartitioner(3, key_index=1),
        HashPartitioner(3, key_index=2),
    ],
)
def test_split_empty_batch(partitioner):
    assert partitioner.split([]) == [[], [], []]
