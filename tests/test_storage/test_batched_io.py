"""Regression tests for the batched block-I/O fast path.

The batched collection/backend/device APIs must be *cost-transparent*:
for the same record traffic they must leave the device counters (the
:class:`~repro.pmem.metrics.IOSnapshot` fields) and the per-store stats
byte-for-byte identical to the per-record path.  These tests drive both
paths -- the per-record one via the :func:`repro.storage.collection.io_batching`
switch -- over collection-level workloads, every backend, and the Fig. 5 /
Fig. 7 sweep workloads.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import experiments
from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.storage.collection import (
    DEFAULT_CHARGE_BATCH_BLOCKS,
    AppendBuffer,
    CollectionStatus,
    PersistentCollection,
    io_batching,
    io_batching_enabled,
    set_io_batching,
)
from repro.storage.schema import WISCONSIN_SCHEMA
from tests.test_cli_golden import CASES as CLI_CASES
from tests.test_joins.test_golden_io import CASES as JOIN_CASES
from tests.test_joins.test_golden_io import run_case as run_join_case
from tests.test_sorts.test_golden_io import CASES as SORT_CASES
from tests.test_sorts.test_golden_io import run_case as run_sort_case


def _materialized(backend, name="col"):
    return PersistentCollection(
        name=name,
        backend=backend,
        schema=WISCONSIN_SCHEMA,
        status=CollectionStatus.MATERIALIZED,
    )


def _records(n):
    return [WISCONSIN_SCHEMA.make_record(key) for key in range(n)]


def _store_state(backend, name):
    stats = backend.store_stats(name)
    return (
        stats.logical_bytes,
        stats.physical_bytes,
        stats.append_calls,
        stats.read_calls,
        dict(stats.extra),
    )


# --------------------------------------------------------------------- #
# Device-level bulk accounting.
# --------------------------------------------------------------------- #
def test_device_bulk_calls_match_repeated_single_calls():
    single, bulk = PersistentMemoryDevice(), PersistentMemoryDevice()
    for _ in range(7):
        single.read(1024)
        single.write(1024, address=4096)
        single.overhead(80.0, label="x")
    bulk.read_bulk(1024, 7)
    bulk.write_bulk(1024, 7, address=4096)
    bulk.overhead_bulk(80.0, 7, label="x")
    assert single.snapshot() == bulk.snapshot()
    assert single.wear_map == bulk.wear_map
    assert single.counters.overhead_breakdown == bulk.counters.overhead_breakdown


def test_device_bulk_zero_count_charges_nothing():
    device = PersistentMemoryDevice()
    assert device.read_bulk(1024, 0) == 0.0
    assert device.write_bulk(1024, 0) == 0.0
    assert device.overhead_bulk(80.0, 0) == 0.0
    assert device.snapshot() == PersistentMemoryDevice().snapshot()


def test_device_bulk_rejects_negative_count():
    device = PersistentMemoryDevice()
    with pytest.raises(ConfigurationError):
        device.read_bulk(1024, -1)
    with pytest.raises(ConfigurationError):
        device.write_bulk(1024, -1)
    with pytest.raises(ConfigurationError):
        device.overhead_bulk(80.0, -1)


# --------------------------------------------------------------------- #
# Backend-level bulk operations, every backend.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
def test_backend_bulk_matches_sequential_calls(backend_name):
    seq_backend = make_backend(backend_name, PersistentMemoryDevice())
    bulk_backend = make_backend(backend_name, PersistentMemoryDevice())
    for backend in (seq_backend, bulk_backend):
        backend.create_store("s")
    # 37 appends of 1024 then 37 reads of 1024, with awkward odd sizes mixed
    # in so growth paths (doubling, extents, fs blocks) are exercised.
    for _ in range(37):
        seq_backend.append("s", 1024)
    seq_backend.append("s", 700)
    for _ in range(37):
        seq_backend.read("s", 1024)
    seq_backend.read("s", 700)
    bulk_backend.append_bulk("s", 1024, 37)
    bulk_backend.append("s", 700)
    bulk_backend.read_bulk("s", 1024, 37)
    bulk_backend.read("s", 700)
    assert seq_backend.device.snapshot() == bulk_backend.device.snapshot()
    assert _store_state(seq_backend, "s") == _store_state(bulk_backend, "s")


# --------------------------------------------------------------------- #
# Collection-level equivalence: extend/scan_blocks vs append/scan.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
@pytest.mark.parametrize("num_records", [0, 1, 11, 2000])
def test_collection_batched_path_is_cost_identical(backend_name, num_records):
    records = _records(num_records)
    snapshots, states, payloads = [], [], []
    for batched in (False, True):
        device = PersistentMemoryDevice()
        backend = make_backend(backend_name, device)
        collection = _materialized(backend)
        with io_batching(batched):
            collection.extend(records)
            collection.seal()
            seen = [record for block in collection.scan_blocks() for record in block]
        snapshots.append(device.snapshot())
        states.append(_store_state(backend, "col"))
        payloads.append(seen)
    assert snapshots[0] == snapshots[1]
    assert states[0] == states[1]
    assert payloads[0] == payloads[1] == records


def test_scan_blocks_matches_scan_records_and_charges(backend):
    collection = _materialized(backend)
    collection.extend(_records(2000))
    collection.seal()
    device = backend.device
    before = device.snapshot()
    scanned = list(collection.scan())
    scan_delta = device.snapshot() - before
    before = device.snapshot()
    blocks = list(collection.scan_blocks())
    blocks_delta = device.snapshot() - before
    assert [r for block in blocks for r in block] == scanned
    assert blocks_delta == scan_delta
    # 13 records per block (1 KiB rounded up to whole 80-byte records):
    # two full charge batches of DEFAULT_CHARGE_BATCH_BLOCKS blocks, the
    # 25 remaining whole blocks, then the 11-record partial tail block.
    per_block = -(-collection.block_bytes // WISCONSIN_SCHEMA.record_bytes)
    assert per_block == 13 and DEFAULT_CHARGE_BATCH_BLOCKS == 64
    assert [len(block) for block in blocks] == [832, 832, 325, 11]
    # Unbatched, every list is one I/O block.
    with io_batching(False):
        sizes = [len(block) for block in collection.scan_blocks()]
    assert sizes == [per_block] * (2000 // per_block) + [2000 % per_block]


def test_scan_blocks_slice_matches_scan_slice(backend):
    collection = _materialized(backend)
    collection.extend(_records(300))
    collection.seal()
    device = backend.device
    before = device.snapshot()
    scanned = list(collection.scan(start=37, stop=211))
    scan_delta = device.snapshot() - before
    before = device.snapshot()
    flat = list(collection.scan_blocks_flat(start=37, stop=211))
    flat_delta = device.snapshot() - before
    assert flat == scanned
    assert flat_delta == scan_delta


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
    batched=st.booleans(),
    abandon_after=st.integers(min_value=0, max_value=6),
)
def test_scan_blocks_charge_batches_match_scan(
    backend_name, num_records, bounds, batched, abandon_after
):
    start, stop = bounds
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection = _materialized(backend)
    collection.extend(_records(num_records))
    collection.seal()
    device = backend.device

    def charged(consume):
        before = device.snapshot()
        result = consume()
        return result, device.snapshot() - before

    with io_batching(batched):
        scanned, scan_delta = charged(lambda: list(collection.scan(start, stop)))
        blocks, blocks_delta = charged(
            lambda: list(collection.scan_blocks(start, stop))
        )
        assert [r for block in blocks for r in block] == scanned
        assert blocks_delta == scan_delta

        def abandon():
            iterator = collection.scan_blocks(start, stop)
            taken = sum(map(len, itertools.islice(iterator, abandon_after)))
            iterator.close()
            return taken

        taken, abandon_delta = charged(abandon)
        # Abandoning after k lists costs what reading exactly their
        # records record by record costs.
        first = slice(start, stop).indices(num_records)[0]
        _, prefix_delta = charged(
            lambda: list(collection.scan(first, first + taken))
        )
        assert taken == sum(map(len, blocks[:abandon_after]))
        assert abandon_delta == prefix_delta


def test_no_consumer_abandons_a_materialized_scan(monkeypatch, capsys):
    """Every materialized scan in the golden workloads runs to exhaustion.

    A charge batch is paid when it is handed out, so a consumer that
    abandoned a materialized scan mid-batch would now pay for records it
    never read.  Spy on every scan the sort, join and aggregation golden
    cases and the golden CLI queries start, and prove none stops early.
    """
    original = PersistentCollection.scan_blocks
    scans = []

    def spy(self, start=0, stop=None):
        if not self.is_materialized:
            yield from original(self, start, stop)
            return
        scan = {"collection": self.name, "exhausted": False}
        scans.append(scan)
        yield from original(self, start, stop)
        scan["exhausted"] = True

    monkeypatch.setattr(PersistentCollection, "scan_blocks", spy)
    for case in SORT_CASES:
        run_sort_case(*case)
    for case in JOIN_CASES:
        run_join_case(*case)
    for args in CLI_CASES.values():
        assert cli_main(args) == 0
    capsys.readouterr()
    assert len(scans) > 100
    assert [scan for scan in scans if not scan["exhausted"]] == []


def test_extend_empty_is_noop_even_when_sealed(backend):
    collection = _materialized(backend)
    collection.extend(_records(5))
    collection.seal()
    for batched in (False, True):
        with io_batching(batched):
            collection.extend([])  # zero appends touch no state on either path
    assert len(collection.records) == 5


def test_append_buffer_flushes_and_seals(backend):
    collection = _materialized(backend)
    buffer = AppendBuffer(collection, batch_records=8)
    for record in _records(21):
        buffer.append(record)
    assert len(collection.records) == 16  # two full batches flushed
    buffer.seal()
    assert len(collection.records) == 21
    assert collection.is_sealed


def test_memory_collection_extend_and_scan_blocks_charge_nothing(backend):
    device = backend.device
    collection = PersistentCollection(
        name="mem", schema=WISCONSIN_SCHEMA, status=CollectionStatus.MEMORY
    )
    collection.extend(_records(100))
    assert [r for b in collection.scan_blocks() for r in b] == collection.records
    assert device.snapshot().total_ns == 0.0


def test_io_batching_switch_restores_previous_state():
    assert io_batching_enabled()
    with io_batching(False):
        assert not io_batching_enabled()
        with io_batching(True):
            assert io_batching_enabled()
        assert not io_batching_enabled()
    assert io_batching_enabled()
    previous = set_io_batching(False)
    assert previous is True
    assert set_io_batching(True) is False


# --------------------------------------------------------------------- #
# block_bytes validation (regression: 0 used to silently become default).
# --------------------------------------------------------------------- #
def test_zero_block_bytes_raises(backend):
    with pytest.raises(ConfigurationError):
        PersistentCollection(name="bad", backend=backend, block_bytes=0)
    with pytest.raises(ConfigurationError):
        PersistentCollection(
            name="bad-mem", status=CollectionStatus.MEMORY, block_bytes=0
        )
    with pytest.raises(ConfigurationError):
        PersistentCollection(name="bad-neg", backend=backend, block_bytes=-1)


def test_default_block_bytes_comes_from_device_geometry(backend):
    collection = _materialized(backend, name="defaults")
    assert collection.block_bytes == backend.device.geometry.block_bytes


# --------------------------------------------------------------------- #
# End-to-end: the Fig. 5 / Fig. 7 sweep workloads cost the same on both
# paths (the acceptance criterion of the batched fast path).
# --------------------------------------------------------------------- #
def _comparable(rows):
    return [
        {
            key: row[key]
            for key in (
                "algorithm",
                "simulated_seconds",
                "cacheline_reads",
                "cacheline_writes",
            )
        }
        for row in rows
    ]


def test_fig5_sort_sweep_identical_io_on_both_paths():
    results = {}
    for batched in (False, True):
        with io_batching(batched):
            results[batched] = experiments.sort_memory_sweep(
                num_records=900, memory_fractions=(0.05, 0.11)
            )
    assert _comparable(results[False]) == _comparable(results[True])
    assert all(row["sorted"] for row in results[True])


def test_fig7_join_sweep_identical_io_on_both_paths():
    results = {}
    for batched in (False, True):
        with io_batching(batched):
            results[batched] = experiments.join_memory_sweep(
                left_records=300,
                right_records=3000,
                memory_fractions=(0.05, 0.11),
                hybrid_intensities=((0.5, 0.5),),
                segmented_intensities=(0.5,),
            )
    assert _comparable(results[False]) == _comparable(results[True])
    matches = [row["matches"] for row in results[True]]
    assert matches == [row["matches"] for row in results[False]]
    assert all(count > 0 for count in matches)
