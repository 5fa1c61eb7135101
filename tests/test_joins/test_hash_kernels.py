"""Differential tests for the hash kernels and the compiled aggregate fold.

Each kernel is compared against the per-record loop it replaced, kept here
as a reference: :func:`partition_into` against ``partition_of`` plus one
list per partition, :func:`probe_into` against a nested loop over the
hash table (and its drain of an empty table), and the hash aggregation's generated ``fold_block`` and
``finish`` against the aggregates' ``initial``/``step``/``final``.
Records carry their load position in attribute 1, so records with equal
keys are distinguishable.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation import HashAggregation
from repro.aggregation.functions import AGGREGATE_REGISTRY, make_aggregate
from repro.aggregation.kernels import compile_kernels
from repro.joins import GraceJoin, SimpleHashJoin
from repro.joins.common import (
    PARTITION_BUCKET_BOUND,
    build_hash_table,
    partition_into,
    partition_of,
    probe_into,
    split_blocks,
)
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection

KEY = WISCONSIN_SCHEMA.key


def tagged_records(keys):
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = position
        records.append(tuple(fields))
    return records


def as_blocks(records, block_records):
    return [
        records[start:start + block_records]
        for start in range(0, len(records), block_records)
    ]


class RecordingTarget:
    """A partition target that keeps every ``extend`` batch it receives."""

    def __init__(self):
        self.batches = []

    def extend(self, records):
        self.batches.append(list(records))

    @property
    def records(self):
        return [record for batch in self.batches for record in batch]


def reference_partition(records, num_partitions, skipped):
    """The per-record loop: ``partition_of`` into one list each."""
    outputs = [[] for _ in range(num_partitions)]
    for record in records:
        partition = partition_of(KEY(record), num_partitions)
        if partition not in skipped:
            outputs[partition].append(record)
    return outputs


key_lists = st.lists(st.integers(min_value=0, max_value=400), max_size=3000)


class TestPartitionInto:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=key_lists,
        num_partitions=st.integers(min_value=1, max_value=9),
        block_records=st.integers(min_value=1, max_value=70),
        skipped=st.sets(st.integers(min_value=0, max_value=8), max_size=4),
    )
    def test_matches_the_per_record_loop(
        self, keys, num_partitions, block_records, skipped
    ):
        records = tagged_records(keys)
        targets = [
            None if index in skipped else RecordingTarget()
            for index in range(num_partitions)
        ]
        counts = partition_into(as_blocks(records, block_records), KEY, targets)
        # Every partition's records are counted, a skipped one's included.
        assert counts == list(map(len, reference_partition(records, num_partitions, ())))
        expected = reference_partition(records, num_partitions, skipped)
        for index, target in enumerate(targets):
            if target is None:
                continue
            assert target.records == expected[index]
            assert all(target.batches)
            assert max(map(len, target.batches), default=0) <= PARTITION_BUCKET_BOUND

    def test_buckets_overshoot_the_threshold_by_less_than_one_sweep(self):
        # 3 of every 5 records hash to partition 0: its bucket holds ~307
        # records at the first sweep and ~614 at the second, when it is
        # handed over.
        keys = [key for key in range(40) if partition_of(key, 2) == 0][:3]
        keys += [key for key in range(40) if partition_of(key, 2) == 1][:2]
        records = tagged_records(keys * 2000)
        targets = [RecordingTarget(), RecordingTarget()]
        partition_into(as_blocks(records, 13), KEY, targets)
        largest = max(len(batch) for target in targets for batch in target.batches)
        assert 512 < largest <= PARTITION_BUCKET_BOUND

    def test_empty_input_hands_over_nothing(self):
        target = RecordingTarget()
        assert partition_into([], KEY, [target, None]) == [0, 0]
        assert target.batches == []


def spy_extends(monkeypatch):
    """Record ``(collection name, batch size)`` of every collection extend."""
    calls = []
    original = PersistentCollection.extend

    def spying(self, records):
        records = list(records)
        calls.append((self.name, len(records)))
        return original(self, records)

    monkeypatch.setattr(PersistentCollection, "extend", spying)
    return calls


class TestPartitionPathsStayBounded:
    """No partition or spill buffers a whole input in DRAM."""

    def test_grace_join_partitions(self, backend, monkeypatch):
        left = build_collection(backend, range(4000), name="bound-L")
        right = build_collection(
            backend, [key % 4000 for key in range(12000)], name="bound-R"
        )
        calls = spy_extends(monkeypatch)
        GraceJoin(backend, MemoryBudget.from_records(400)).join(left, right)
        partition_batches = [
            size for name, size in calls if re.search(r"-[LR]-p\d+$", name)
        ]
        assert len(partition_batches) > 2 * 11
        assert max(partition_batches) <= PARTITION_BUCKET_BOUND

    def test_hash_aggregation_spills(self, backend, monkeypatch):
        data = build_collection(
            backend, [key % 3000 for key in range(15000)], name="bound-agg"
        )
        calls = spy_extends(monkeypatch)
        result = HashAggregation(backend, MemoryBudget.from_records(20)).aggregate(
            data
        )
        assert result.spills > 0
        spill_batches = [size for name, size in calls if "hashagg-spill" in name]
        assert sum(spill_batches) > PARTITION_BUCKET_BOUND
        assert max(spill_batches) <= PARTITION_BUCKET_BOUND


def reference_probe(table, block):
    matches = []
    for record in block:
        for match in table.get(KEY(record), []):
            matches.append(match + record)
    return matches


def probed(table, blocks):
    output = RecordingTarget()
    probe_into(output, table, blocks, KEY)
    return output


class TestProbeInto:
    @settings(max_examples=60, deadline=None)
    @given(
        build_keys=st.lists(st.integers(min_value=0, max_value=30), max_size=80),
        probe_keys=st.lists(st.integers(min_value=0, max_value=40), max_size=80),
        block_records=st.integers(min_value=1, max_value=20),
    )
    @example(build_keys=[], probe_keys=[3, 1, 3], block_records=2)
    def test_matches_the_nested_loop(self, build_keys, probe_keys, block_records):
        build = tagged_records(build_keys)
        probe = tagged_records(probe_keys)
        table = build_hash_table(build, KEY)
        output = probed(table, as_blocks(probe, block_records))
        assert output.records == reference_probe(table, probe)

    def test_orders_by_probe_record_then_build_insertion(self):
        build = tagged_records([5, 7, 5])
        probe = tagged_records([5, 9, 7])
        table = build_hash_table(build, KEY)
        assert probed(table, [probe]).records == [
            build[0] + probe[0],
            build[2] + probe[0],
            build[1] + probe[2],
        ]

    def test_empty_table_drains_the_blocks_and_extends_nothing(self):
        blocks = as_blocks(tagged_records(range(50)), 7)
        yielded = []

        def counting():
            for block in blocks:
                yielded.append(block)
                yield block
            yielded.append("exhausted")

        output = probed({}, counting())
        assert yielded == [*blocks, "exhausted"]
        assert output.batches == []

    def test_hash_join_pass_over_an_empty_build_partition_writes_its_spill(
        self, backend, monkeypatch
    ):
        # Build keys that are multiples of 4 fill only partition 0 of 4, so
        # pass 1 probes an empty table while it writes the spill pass 2
        # reads: the right records of partitions 2 and 3.
        left = build_collection(backend, [4 * key for key in range(40)], name="L")
        right = build_collection(backend, range(300), name="R")
        calls = spy_extends(monkeypatch)
        result = SimpleHashJoin(backend, MemoryBudget.from_records(10)).join(
            left, right
        )
        assert result.partitions == 4
        assert {partition_of(KEY(record), 4) for record in left.records} == {0}
        spilled = sum(
            size
            for name, size in calls
            if name.startswith(result.output.name) and name.endswith("-R2")
        )
        assert spilled == sum(
            1 for record in right.records if partition_of(KEY(record), 4) > 1
        )


class TestSplitBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=key_lists,
        num_partitions=st.integers(min_value=1, max_value=6),
        index=st.integers(min_value=0, max_value=5),
        block_records=st.integers(min_value=1, max_value=40),
    )
    def test_splits_three_ways_in_input_order(
        self, keys, num_partitions, index, block_records
    ):
        index %= num_partitions
        records = tagged_records(keys)
        spill = RecordingTarget()
        current = [
            record
            for block in split_blocks(
                as_blocks(records, block_records), KEY, num_partitions, index, spill
            )
            for record in block
        ]

        def part(record):
            return partition_of(KEY(record), num_partitions)

        assert current == [r for r in records if part(r) == index]
        assert spill.records == [r for r in records if part(r) > index]


class TestCompiledFold:
    def fold_and_finalize(self, aggregates, records):
        """Fold ``records`` as one group (attribute 0 is a constant key
        prepended to each record) and finish it."""
        spec = tuple(
            (aggregate.name, attribute + 1) for aggregate, attribute in aggregates
        )
        kernels = compile_kernels(spec, 0)
        table = {}
        kernels.fold_block([(0,) + record for record in records], table, 1, [])
        [(key, *values)] = kernels.finish(table)
        return values

    def reference(self, aggregates, records):
        states = [aggregate.initial() for aggregate, _ in aggregates]
        for record in records:
            states = [
                aggregate.step(state, record[attribute])
                for state, (aggregate, attribute) in zip(states, aggregates)
            ]
        return [
            aggregate.final(state) for state, (aggregate, _) in zip(states, aggregates)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.integers(min_value=-50, max_value=50)] * 3),
            min_size=1,
            max_size=40,
        ),
        spec=st.lists(
            st.tuples(
                st.sampled_from(sorted(AGGREGATE_REGISTRY)),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_equals_initial_step_final(self, rows, spec):
        aggregates = [(make_aggregate(name), attribute) for name, attribute in spec]
        assert self.fold_and_finalize(aggregates, rows) == self.reference(
            aggregates, rows
        )

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_min_max_of_a_single_record(self, name):
        aggregates = [(make_aggregate(name), 0)]
        assert self.fold_and_finalize(aggregates, [(-7,)]) == [-7]

    def test_avg_floors(self):
        aggregates = [(make_aggregate("avg"), 0)]
        assert self.fold_and_finalize(aggregates, [(1,), (2,)]) == [1]
        assert self.fold_and_finalize(aggregates, [(-1,), (-2,)]) == [-2]

    def test_updates_states_in_place(self):
        fold_block = compile_kernels((("count", 0), ("sum", 1)), 0).fold_block
        table = {}
        assert fold_block([(9, 4)], table, 1, []) is None
        assert table == {9: [1, 4]}
        fold_block([(9, 5)], table, 1, [])
        assert table == {9: [2, 9]}
