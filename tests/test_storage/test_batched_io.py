"""Regression tests for block-batched I/O charging.

The bulk device and backend calls must be *cost-transparent*: they leave
the device counters (the :class:`~repro.pmem.metrics.IOSnapshot` fields)
and the per-store stats byte-for-byte identical to the sequence of single
calls they stand for.  A collection's ``extend`` and ``scan_blocks`` must
then charge exactly the arithmetic charge model written out below -- one
block-sized backend call per whole I/O block plus one for the partial
tail -- on every backend.  Whole workloads are pinned by the exact-I/O
fixtures ``golden_io/{sorts,joins,deferred}.json``.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.storage.collection import (
    DEFAULT_CHARGE_BATCH_BLOCKS,
    CollectionStatus,
    PersistentCollection,
)
from repro.storage.schema import WISCONSIN_SCHEMA
from tests.test_cli_golden import observed_cases as observed_cli
from tests.test_joins.test_golden_io import observed_cases as observed_joins
from tests.test_runtime.test_golden_io import observed_cases as observed_deferred
from tests.test_sorts.test_golden_io import observed_cases as observed_sorts


def _materialized(backend, name="col"):
    return PersistentCollection(
        name=name,
        backend=backend,
        schema=WISCONSIN_SCHEMA,
        status=CollectionStatus.MATERIALIZED,
    )


def _records(n):
    return [WISCONSIN_SCHEMA.make_record(key) for key in range(n)]


def _store_state(stats):
    return (
        stats.logical_bytes,
        stats.physical_bytes,
        stats.append_calls,
        stats.read_calls,
        dict(stats.extra),
    )


def model_writes(backend, store, num_records):
    """Single-chunk charges of appending ``num_records`` records, then sealing.

    Appended bytes fill ``block_bytes`` blocks one backend append each;
    sealing flushes the partial block.
    """
    block_bytes = backend.device.geometry.block_bytes
    full_blocks, pending = divmod(
        num_records * WISCONSIN_SCHEMA.record_bytes, block_bytes
    )
    for _ in range(full_blocks):
        backend.append_bulk(store, block_bytes)
    if pending:
        backend.append_bulk(store, pending)


def model_reads(backend, store, num_records):
    """Single-chunk charges of a full scan of ``num_records`` records.

    One backend read per whole I/O block (the fewest records whose payload
    fills ``block_bytes``: 13 Wisconsin records per 1 KiB), then one for
    the records of the partial tail block.
    """
    record_bytes = WISCONSIN_SCHEMA.record_bytes
    per_block = -(-backend.device.geometry.block_bytes // record_bytes)
    blocks, tail = divmod(num_records, per_block)
    for _ in range(blocks):
        backend.read_bulk(store, per_block * record_bytes)
    if tail:
        backend.read_bulk(store, tail * record_bytes)


def charged(device, action):
    """``action()``'s result and the device counters it moved."""
    before = device.snapshot()
    result = action()
    return result, device.snapshot() - before


# --------------------------------------------------------------------- #
# Device-level bulk accounting.
# --------------------------------------------------------------------- #
def test_device_bulk_calls_match_repeated_single_calls():
    single, bulk = PersistentMemoryDevice(), PersistentMemoryDevice()
    for _ in range(7):
        single.read(1024)
        single.write(1024)
        single.overhead(80.0, label="x")
    bulk.read_bulk(1024, 7)
    bulk.write_bulk(1024, 7)
    bulk.overhead(80.0, label="x", count=7)
    assert single.snapshot() == bulk.snapshot()
    assert single.counters.overhead_breakdown == bulk.counters.overhead_breakdown


def test_device_bulk_zero_count_charges_nothing():
    device = PersistentMemoryDevice()
    assert device.read_bulk(1024, 0) == 0.0
    assert device.write_bulk(1024, 0) == 0.0
    assert device.overhead(80.0, count=0) == 0.0
    assert device.snapshot() == PersistentMemoryDevice().snapshot()


def test_device_bulk_rejects_negative_count():
    device = PersistentMemoryDevice()
    with pytest.raises(ConfigurationError):
        device.read_bulk(1024, -1)
    with pytest.raises(ConfigurationError):
        device.write_bulk(1024, -1)
    with pytest.raises(ConfigurationError):
        device.overhead(80.0, count=-1)


# --------------------------------------------------------------------- #
# Backend-level bulk operations, every backend.
# --------------------------------------------------------------------- #
#: A sequence of ``(operation, chunk_bytes, count)`` backend calls.  Chunk
#: sizes straddle every growth granule (blocks, extents, 512-byte fs records,
#: doubling capacities), and zero-byte and zero-count calls are included.
CHUNK_CALLS = st.lists(
    st.tuples(
        st.sampled_from(("append", "read")),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=12,
)


@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
@settings(max_examples=50, deadline=None)
@given(calls=CHUNK_CALLS)
def test_backend_bulk_matches_sequential_calls(backend_name, calls):
    """``count`` chunks in one call charge what ``count`` single-chunk calls do."""
    bulk_backend = make_backend(backend_name, PersistentMemoryDevice())
    seq_backend = make_backend(backend_name, PersistentMemoryDevice())
    bulk_store = bulk_backend.create_store("s")
    seq_store = seq_backend.create_store("s")
    for operation, chunk_bytes, count in calls:
        getattr(bulk_backend, f"{operation}_bulk")(bulk_store, chunk_bytes, count)
        for _ in range(count):
            getattr(seq_backend, f"{operation}_bulk")(seq_store, chunk_bytes)
    assert seq_backend.device.snapshot() == bulk_backend.device.snapshot()
    assert _store_state(seq_store) == _store_state(bulk_store)


# --------------------------------------------------------------------- #
# Collection-level charges against the arithmetic model.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
@pytest.mark.parametrize("num_records", [0, 1, 11, 13, 2000])
def test_collection_charges_match_model(backend_name, num_records):
    records = _records(num_records)
    device = PersistentMemoryDevice()
    backend = make_backend(backend_name, device)
    collection = _materialized(backend)
    model_device = PersistentMemoryDevice()
    model = make_backend(backend_name, model_device)
    model_store = model.create_store("col")

    def write():
        collection.extend(records)
        collection.seal()

    _, write_delta = charged(device, write)
    _, model_write = charged(
        model_device, lambda: model_writes(model, model_store, num_records)
    )
    assert write_delta == model_write
    seen, read_delta = charged(device, lambda: list(collection.scan()))
    _, model_read = charged(
        model_device, lambda: model_reads(model, model_store, num_records)
    )
    assert read_delta == model_read
    assert seen == records
    assert _store_state(collection.store) == _store_state(model_store)


def test_scan_blocks_lists_are_charge_batches(backend):
    collection = _materialized(backend)
    collection.extend(_records(2000))
    collection.seal()
    blocks, delta = charged(backend.device, lambda: list(collection.scan_blocks()))
    assert [r for block in blocks for r in block] == collection.records
    # 13 records per block (1 KiB rounded up to whole 80-byte records):
    # two full charge batches of DEFAULT_CHARGE_BATCH_BLOCKS blocks, the
    # 25 remaining whole blocks, then the 11-record partial tail block.
    assert collection.records_per_block == 13 and DEFAULT_CHARGE_BATCH_BLOCKS == 64
    assert [len(block) for block in blocks] == [832, 832, 325, 11]
    assert delta.read_calls == 2000 // 13 + 1
    assert delta.bytes_read == 2000 * WISCONSIN_SCHEMA.record_bytes


def test_scan_slice_charges_blocks_from_its_start(backend):
    collection = _materialized(backend)
    collection.extend(_records(300))
    collection.seal()
    device = backend.device
    seen, delta = charged(device, lambda: list(collection.scan(start=37, stop=211)))
    assert seen == collection.records[37:211]
    # 174 records: 13 whole blocks counted from record 37, then 5 records.
    _, model = charged(device, lambda: model_reads(backend, collection.store, 174))
    assert delta == model


def test_charge_scan_is_the_scan_price(backend):
    collection = _materialized(backend)
    collection.extend(_records(300))
    collection.seal()
    device = backend.device
    _, scanned = charged(device, lambda: list(collection.scan_blocks(20, 250)))
    _, priced = charged(device, lambda: collection.charge_scan(20, 250))
    assert scanned == priced
    memory = PersistentCollection(name="mem", status=CollectionStatus.MEMORY)
    memory.extend(_records(300))
    _, free = charged(device, lambda: memory.charge_scan(0, 300))
    assert free.total_ns == 0.0 and free.read_calls == 0


def test_scan_blocks_abandoned_early_charges_only_consumed_blocks(backend):
    collection = _materialized(backend)
    collection.extend(_records(3000))
    collection.seal()
    device = backend.device
    before = device.snapshot()
    iterator = collection.scan_blocks()
    consumed = [next(iterator), next(iterator)]
    iterator.close()
    delta = device.snapshot() - before
    consumed_records = sum(len(block) for block in consumed)
    assert consumed_records < 3000
    assert delta.bytes_read == consumed_records * WISCONSIN_SCHEMA.record_bytes
    before = device.snapshot()
    list(collection.scan(stop=consumed_records))
    assert delta == device.snapshot() - before


@settings(max_examples=40, deadline=None)
@given(
    backend_name=st.sampled_from(sorted(BACKEND_REGISTRY)),
    num_records=st.integers(min_value=0, max_value=3000),
    bounds=st.tuples(
        st.integers(min_value=0, max_value=3100),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3100)),
    ),
    abandon_after=st.integers(min_value=0, max_value=6),
)
def test_scan_blocks_charge_batches_match_model(
    backend_name, num_records, bounds, abandon_after
):
    start, stop = bounds
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection = _materialized(backend)
    collection.extend(_records(num_records))
    collection.seal()
    device = backend.device
    first, last, _ = slice(start, stop).indices(num_records)
    expected = collection.records[first:last]

    blocks, blocks_delta = charged(
        device, lambda: list(collection.scan_blocks(start, stop))
    )
    assert [r for block in blocks for r in block] == expected
    assert all(len(block) % 13 == 0 for block in blocks[:-1])
    assert all(len(block) <= 832 for block in blocks)
    _, model_delta = charged(
        device, lambda: model_reads(backend, collection.store, len(expected))
    )
    assert blocks_delta == model_delta

    def abandon():
        iterator = collection.scan_blocks(start, stop)
        taken = sum(map(len, itertools.islice(iterator, abandon_after)))
        iterator.close()
        return taken

    taken, abandon_delta = charged(device, abandon)
    # Abandoning after k lists costs what the model charges for exactly
    # their records.
    assert taken == sum(map(len, blocks[:abandon_after]))
    _, prefix_delta = charged(device, lambda: model_reads(backend, collection.store, taken))
    assert abandon_delta == prefix_delta


def test_no_consumer_abandons_a_scan():
    """Every scan in the golden workloads runs to exhaustion, and every
    store a run or a query creates is gone when it ends but its result's.

    A materialized charge batch is paid when it is handed out, and a
    deferred scan's replay charges whole root blocks as it derives and the
    root's tail only at its end, so a consumer that abandoned either scan
    would pay something other than the replay contract.  The golden
    observers (``tests/golden_pass.py``) watch every scan the sort, join,
    aggregation and deferred-input golden cases and the golden CLI
    queries start, on the golden tests' own runs, and every store created
    while an algorithm or a query runs: when each case returns, only the
    results' stores may remain (a case's inputs are created outside any
    run).
    """
    scans = []
    for observed in (
        observed_sorts(),
        observed_joins(),
        observed_deferred(),
        observed_cli(),
    ):
        for case, observation in observed.items():
            assert observation.leftover == [], case
            scans.extend(observation.scans)
    deferred = [scan for scan in scans if scan["deferred"]]
    assert len(scans) - len(deferred) > 100
    assert len(deferred) > 100
    assert [scan for scan in scans if not scan["exhausted"]] == []


def test_extend_empty_is_noop_even_when_sealed(backend):
    collection = _materialized(backend)
    collection.extend(_records(5))
    collection.seal()
    collection.extend([])  # zero records touch no state
    assert len(collection.records) == 5


@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
@settings(max_examples=50, deadline=None)
@given(
    num_records=st.integers(min_value=0, max_value=300),
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=20),
)
def test_extend_is_cut_invariant(backend_name, num_records, cuts):
    """A stream cut into ``extend`` calls, empty ones included, charges
    and stores what one ``extend`` of it does."""
    records = _records(num_records)
    whole = make_backend(backend_name, PersistentMemoryDevice())
    cut = make_backend(backend_name, PersistentMemoryDevice())
    collection = _materialized(whole)
    collection.extend(records)
    collection.seal()
    pieces = _materialized(cut)
    bounds = [0, *sorted(min(point, num_records) for point in cuts), num_records]
    for start, stop in zip(bounds, bounds[1:]):
        pieces.extend(records[start:stop])
    pieces.seal()
    assert pieces.records == collection.records
    assert cut.device.snapshot() == whole.device.snapshot()
    assert _store_state(pieces.store) == _store_state(collection.store)


def test_memory_collection_extend_and_scan_blocks_charge_nothing(backend):
    device = backend.device
    collection = PersistentCollection(
        name="mem", schema=WISCONSIN_SCHEMA, status=CollectionStatus.MEMORY
    )
    collection.extend(_records(100))
    assert [r for b in collection.scan_blocks() for r in b] == collection.records
    assert device.snapshot().total_ns == 0.0


# --------------------------------------------------------------------- #
# block_bytes comes from the device geometry.
# --------------------------------------------------------------------- #
def test_default_block_bytes_comes_from_device_geometry(backend):
    collection = _materialized(backend, name="defaults")
    assert collection.block_bytes == backend.device.geometry.block_bytes
