"""A settled input partitioned from its bucket memo costs and writes what
streaming it does.

A join's partition pass over a settled source read whole takes the
source's buckets from the collection's memo
(``PersistentCollection.partitioned``): it is charged one
``charge_rescan`` and each live target is extended with its bucket in one
call.  The properties below run the same pass twice, on identical builds:
once as the library does (``partition_source`` inside
``_partition_inputs``, ``partition_records`` for one partition) and once
through the streaming kernels they replace, kept here as the reference
(``partition_into`` and ``split_blocks`` over ``scan_blocks``).  They draw
every backend, MEMORY and MATERIALIZED sources, sealed and unsealed, 1-64
partitions, keys that are all multiples of ``k`` (``partition_of`` keeps a
key's factors of 2, so many partitions stay empty), empty inputs, sources
whose memo was filled before a ``clear()`` and a refill, and left sides
whose live partitions are all empty, so the right side must not be
scanned.  Both runs must give the same per-target records in the same
order, the same counts, the same device ``IOSnapshot`` delta and the same
stats, ``extra`` included, for every store.
"""

from __future__ import annotations

from itertools import chain
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import GraceJoin
from repro.joins import common
from repro.joins.common import partition_into, split_blocks
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

KEY_INDEX = WISCONSIN_SCHEMA.key_index


def streaming_partition_source(source, key_index, targets, stop=None):
    """The streaming pass: ``partition_into`` over the source's scan."""
    return partition_into(source.scan_blocks(stop=stop), key_index, targets)


def streaming_partition_records(source, key_index, num_partitions, index, spill=None):
    """The streaming split: ``split_blocks`` over the source's scan."""
    return chain.from_iterable(
        split_blocks(source.scan_blocks(), key_index, num_partitions, index, spill)
    )


def tagged_records(keys, tag=0):
    """Records of ``keys``, their load position (plus ``tag``) in attribute 1."""
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = tag + position
        records.append(tuple(fields))
    return records


def build_source(backend, name, keys, status, sealed, warm, refill, num_partitions):
    """A source holding ``keys``.  With ``refill``, it first held other
    records, was sealed and bucketed into its memo, then cleared; with
    ``warm``, a sealed source's memo holds its buckets already."""
    source = PersistentCollection(name, backend, status=status)
    if refill:
        source.extend(tagged_records([key + 1 for key in keys] or [1, 3], 10_000))
        source.seal()
        source.partitioned(num_partitions, KEY_INDEX)
        source.clear()
    source.extend(tagged_records(keys))
    if sealed:
        source.seal()
        if warm:
            source.partitioned(num_partitions, KEY_INDEX)
    return source


def store_stats(backend):
    return [
        (
            store.label,
            store.logical_bytes,
            store.physical_bytes,
            store.append_calls,
            store.read_calls,
            store.truncate_calls,
            dict(store.extra),
        )
        for store in backend.stores()
    ]


def multiples(max_size):
    return st.lists(st.integers(min_value=0, max_value=300), max_size=max_size)


cases = dict(
    backend_name=st.sampled_from(sorted(BACKEND_REGISTRY)),
    status=st.sampled_from([CollectionStatus.MEMORY, CollectionStatus.MATERIALIZED]),
    sealed=st.booleans(),
    warm=st.booleans(),
    refill=st.booleans(),
    num_partitions=st.integers(min_value=1, max_value=64),
    k=st.sampled_from([1, 2, 3, 4, 8, 16]),
    left_factors=multiples(200),
    right_factors=multiples(400),
    materialized_share=st.floats(min_value=0.0, max_value=1.0),
)


def partition_pass(
    streaming,
    backend_name,
    status,
    sealed,
    warm,
    refill,
    num_partitions,
    k,
    left_factors,
    right_factors,
    materialized_share,
):
    """``_partition_inputs`` on a fresh build: its partitions' records,
    the counts of each side, the device delta, every store's stats and
    whether the right side was read."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    sides = [
        build_source(
            backend,
            name,
            [k * factor for factor in factors],
            status,
            sealed,
            warm,
            refill,
            num_partitions,
        )
        for name, factors in (("T", left_factors), ("V", right_factors))
    ]
    materialized = int(num_partitions * materialized_share)
    join = GraceJoin(backend, MemoryBudget.from_records(64))
    counts = []

    def recorded(partition):
        def run(*args, **kwargs):
            counts.append(partition(*args, **kwargs))
            return counts[-1]

        return run

    partition = streaming_partition_source if streaming else common.partition_source
    right_reads = sides[1].store and sides[1].store.read_calls
    before = backend.device.snapshot()
    with mock.patch("repro.joins.base.partition_source", recorded(partition)):
        left_parts, right_parts, occupancy = join._partition_inputs(
            *sides, num_partitions, "pass", materialized=materialized
        )
    delta = backend.device.snapshot() - before
    right_read = bool(sides[1].store) and sides[1].store.read_calls != right_reads
    parts = [
        [None if part is None else list(part.records) for part in side]
        for side in (left_parts, right_parts)
    ]
    return parts, occupancy, counts, delta, store_stats(backend), right_read


@settings(max_examples=80, deadline=None)
@given(**cases)
def test_partition_inputs_from_the_memo_match_the_streaming_pass(**case):
    memo = partition_pass(False, **case)
    assert memo == partition_pass(True, **case)
    parts, occupancy, counts, _, _, right_read = memo
    live = [
        index < int(case["num_partitions"] * case["materialized_share"])
        and occupancy[index] > 0
        for index in range(case["num_partitions"])
    ]
    if not any(live):
        # No live build partition: the right side is neither scanned nor
        # partitioned.
        assert len(counts) == 1
        assert parts[1] == [None] * case["num_partitions"]
        assert not right_read


def one_partition(
    streaming,
    backend_name,
    status,
    sealed,
    warm,
    refill,
    num_partitions,
    k,
    factors,
    index,
):
    """The records of partition ``index`` of a fresh build, the device
    delta and every store's stats."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    source = build_source(
        backend,
        "T",
        [k * factor for factor in factors],
        status,
        sealed,
        warm,
        refill,
        num_partitions,
    )
    index %= num_partitions
    partition = (
        streaming_partition_records if streaming else common.partition_records
    )
    before = backend.device.snapshot()
    records = list(partition(source, KEY_INDEX, num_partitions, index))
    delta = backend.device.snapshot() - before
    return records, delta, store_stats(backend)


@settings(max_examples=50, deadline=None)
@given(
    backend_name=cases["backend_name"],
    status=cases["status"],
    sealed=cases["sealed"],
    warm=cases["warm"],
    refill=cases["refill"],
    num_partitions=cases["num_partitions"],
    k=cases["k"],
    factors=multiples(400),
    index=st.integers(min_value=0, max_value=63),
)
def test_one_partition_from_the_memo_matches_the_streaming_split(**case):
    assert one_partition(False, **case) == one_partition(True, **case)
