"""Unit tests for ShardSet and ShardedCollection."""

import pytest

from repro.exceptions import ConfigurationError
from repro.shard import HashPartitioner, ShardSet, ShardedCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from tests.test_shard.routed_keys import keys_routed_to


def make_records(keys):
    return [WISCONSIN_SCHEMA.make_record(key) for key in keys]


class TestShardSet:
    def test_create_builds_independent_devices(self):
        shard_set = ShardSet.create(3)
        devices = shard_set.devices
        assert len({id(device) for device in devices}) == 3
        devices[0].read(64)
        assert devices[0].counters.cacheline_reads == 1.0
        assert devices[1].counters.cacheline_reads == 0.0

    def test_create_applies_latency(self):
        shard_set = ShardSet.create(2, write_ns=600.0)
        assert shard_set.write_read_ratio == 60.0

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigurationError):
            ShardSet.create(0)
        with pytest.raises(ConfigurationError):
            ShardSet([])


class TestShardedCollection:
    def test_routes_records_by_partitioner(self):
        shard_set = ShardSet.create(4)
        collection = ShardedCollection("T", shard_set)
        records = make_records(range(400))
        collection.extend(records)
        partitioner = collection.partitioner
        for index, shard in enumerate(collection.shards):
            assert partitioner.split(shard.records)[index] == shard.records
        assert len(collection) == 400
        assert sorted(collection.records) == sorted(records)

    def test_extend_matches_per_record_routing(self):
        shard_set_a = ShardSet.create(3)
        shard_set_b = ShardSet.create(3)
        records = make_records(range(100))
        bulk = ShardedCollection("T", shard_set_a)
        bulk.extend(records)
        bulk.seal()
        one_by_one = ShardedCollection("T", shard_set_b)
        for shard, bucket in enumerate(one_by_one.partitioner.split(records)):
            for record in bucket:
                one_by_one.shard(shard).extend([record])
        one_by_one.seal()
        assert [len(shard) for shard in bulk.shards] == [
            len(shard) for shard in one_by_one.shards
        ]
        for a, b in zip(shard_set_a.devices, shard_set_b.devices):
            assert a.snapshot().bytes_written == b.snapshot().bytes_written

    def test_writes_charge_only_the_owning_shard(self):
        shard_set = ShardSet.create(2)
        collection = ShardedCollection("T", shard_set, partitioner=HashPartitioner(2))
        collection.extend(make_records(keys_routed_to({1}, 2, 100)))
        collection.seal()
        snapshots = [device.snapshot() for device in shard_set.devices]
        assert snapshots[0].bytes_written == 0
        assert snapshots[1].bytes_written == 100 * WISCONSIN_SCHEMA.record_bytes

    def test_summed_shard_bytes_match_single_device_load(self):
        from repro.bench.harness import make_environment
        from repro.workloads.generator import load_collection

        records = make_records(range(250))
        shard_set = ShardSet.create(5)
        sharded = ShardedCollection("T", shard_set)
        sharded.extend(records)
        sharded.seal()
        env = make_environment()
        load_collection(records, env.backend, "T")
        single = env.device.snapshot()
        summed = sum(
            device.snapshot().bytes_written for device in shard_set.devices
        )
        assert summed == single.bytes_written
        assert sharded.nbytes == 250 * WISCONSIN_SCHEMA.record_bytes

    def test_partitioner_shard_count_must_match(self):
        shard_set = ShardSet.create(2)
        with pytest.raises(ConfigurationError):
            ShardedCollection("T", shard_set, partitioner=HashPartitioner(3))

    def test_partition_key_must_fit_schema(self):
        shard_set = ShardSet.create(2)
        with pytest.raises(ConfigurationError):
            ShardedCollection(
                "T", shard_set, partitioner=HashPartitioner(2, key_index=10)
            )
