"""Tests for the sort/join input builders.

Every case runs on each target a builder takes: one backend, and shard
sets of one to four shards.  Whatever the target, an input holds the
same records, every shard holds the records its partitioner routes to
it in input order, and everything is sealed.
"""

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.shard import HashPartitioner, ShardedCollection, ShardSet
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import load_collection, make_join_inputs, make_sort_input

from tests.conftest import assert_sealed

SHARD_COUNTS = (1, 2, 3, 4)


def fresh_backend():
    return make_backend("blocked_memory", PersistentMemoryDevice())


@pytest.fixture(
    params=(None, *SHARD_COUNTS),
    ids=("backend", *(f"{count}-shards" for count in SHARD_COUNTS)),
)
def target(request):
    """A backend, or a shard set of one to four shards."""
    if request.param is None:
        return fresh_backend()
    return ShardSet.create(request.param)


def backends_of(target):
    return target.backends if isinstance(target, ShardSet) else [target]


def keys_of(collection):
    return [record[0] for record in collection.records]


def assert_placed(collection, target, input_records):
    """``collection`` holds ``input_records`` as ``target`` places them."""
    if isinstance(target, ShardSet):
        assert isinstance(collection, ShardedCollection)
        assert collection.shard_set is target
        routed = collection.partitioner.split(input_records)
        for index, shard in enumerate(collection.shards):
            assert shard.records == routed[index]
            assert_sealed(shard)
            assert shard.backend is target.backends[index]
    else:
        assert collection.records == input_records
        assert_sealed(collection)
        assert collection.backend is target


class TestLoadCollection:
    def test_loads_and_seals(self, target):
        records = [WISCONSIN_SCHEMA.make_record(k) for k in range(10)]
        collection = load_collection(records, target, "loaded")
        assert len(collection) == 10
        assert_placed(collection, target, records)
        labels = [store.label for b in backends_of(target) for store in b.stores()]
        if isinstance(target, ShardSet):
            assert labels == [f"loaded/shard{i}" for i in range(len(target))]
        else:
            assert labels == ["loaded"]

    def test_loading_charges_writes(self, target):
        devices = [backend.device for backend in backends_of(target)]
        before = [device.snapshot() for device in devices]
        load_collection(
            (WISCONSIN_SCHEMA.make_record(k) for k in range(100)), target, "charged"
        )
        writes = sum(
            (device.snapshot() - start).cacheline_writes
            for device, start in zip(devices, before)
        )
        assert writes == pytest.approx(8000 / 64)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_partitioner_routes_records(self, num_shards):
        target = ShardSet.create(num_shards)
        records = [WISCONSIN_SCHEMA.make_record(k) for k in range(60)]
        partitioner = HashPartitioner(len(target), key_index=1)
        collection = load_collection(records, target, "by-1", partitioner=partitioner)
        assert collection.partitioner is partitioner
        assert_placed(collection, target, records)

    def test_partitioner_with_a_backend_raises(self, backend):
        with pytest.raises(ConfigurationError, match="ShardSet"):
            load_collection([], backend, "x", partitioner=HashPartitioner(1))
        assert backend.stores() == []


class TestSortInput:
    @pytest.mark.parametrize("num_records", [0, 1, 500])
    def test_same_records_on_every_target(self, target, num_records):
        reference = make_sort_input(num_records, fresh_backend()).records
        collection = make_sort_input(num_records, target)
        assert Counter(collection.records) == Counter(reference)
        assert_placed(collection, target, reference)

    def test_size_and_key_domain(self, target):
        collection = make_sort_input(500, target, name="s500")
        assert len(collection) == 500
        assert sorted(keys_of(collection)) == list(range(500))

    def test_not_pre_sorted(self, target):
        collection = make_sort_input(500, target, name="unsorted")
        assert keys_of(collection) != sorted(keys_of(collection))

    def test_zero_records(self, target):
        collection = make_sort_input(0, target, name="empty-input")
        assert len(collection) == 0
        assert_placed(collection, target, [])

    def test_negative_records_rejected(self, target):
        with pytest.raises(ConfigurationError):
            make_sort_input(-5, target)

    def test_seed_controls_order(self, target):
        a = make_sort_input(300, target, name="seed-a", seed=1)
        b = make_sort_input(300, target, name="seed-b", seed=9)
        assert keys_of(a) != keys_of(b)
        assert sorted(keys_of(a)) == sorted(keys_of(b))


class TestJoinInputs:
    def test_same_records_on_every_target(self, target):
        reference = make_join_inputs(100, 1000, fresh_backend())
        inputs = make_join_inputs(100, 1000, target)
        for collection, expected in zip(inputs, reference):
            assert Counter(collection.records) == Counter(expected.records)
            assert_placed(collection, target, expected.records)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_right_partitioner_routes_the_right_side(self, num_shards):
        target = ShardSet.create(num_shards)
        reference = make_join_inputs(50, 500, fresh_backend())
        partitioner = HashPartitioner(len(target), key_index=1)
        left, right = make_join_inputs(
            50, 500, target, right_partitioner=partitioner
        )
        assert right.partitioner is partitioner
        assert left.partitioner.key_index == WISCONSIN_SCHEMA.key_index
        assert_placed(left, target, reference[0].records)
        assert_placed(right, target, reference[1].records)

    def test_cardinalities(self, target):
        left, right = make_join_inputs(100, 1000, target)
        assert len(left) == 100
        assert len(right) == 1000

    def test_fanout_is_uniform(self, target):
        left, right = make_join_inputs(100, 1000, target, left_name="fL", right_name="fR")
        assert set(Counter(keys_of(right)).values()) == {10}

    def test_every_right_key_has_a_left_match(self, target):
        left, right = make_join_inputs(50, 500, target, left_name="mL", right_name="mR")
        assert set(keys_of(right)) <= set(keys_of(left))

    def test_left_keys_are_distinct(self, target):
        left, _ = make_join_inputs(64, 640, target, left_name="dL", right_name="dR")
        assert len(set(keys_of(left))) == 64

    def test_empty_inputs_rejected(self, target):
        with pytest.raises(ConfigurationError):
            make_join_inputs(0, 100, target)
        with pytest.raises(ConfigurationError):
            make_join_inputs(100, 0, target)

    def test_right_partitioner_with_a_backend_raises(self, backend):
        with pytest.raises(ConfigurationError, match="ShardSet"):
            make_join_inputs(10, 100, backend, right_partitioner=HashPartitioner(1))
