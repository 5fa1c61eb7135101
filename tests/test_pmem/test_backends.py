"""Tests for the four persistence-layer backends."""

import pytest

from repro.exceptions import ConfigurationError, UnknownCollectionError
from repro.pmem.backends import (
    BACKEND_PAPER_ORDER,
    BACKEND_REGISTRY,
    BlockedMemoryBackend,
    DynamicArrayBackend,
    PmfsBackend,
    RamDiskBackend,
    make_backend,
)
from repro.pmem.backends.base import StoreStats
from repro.pmem.device import DeviceGeometry, PersistentMemoryDevice


def device_with_blocks(block_bytes):
    """A fresh device whose geometry has ``block_bytes`` blocks."""
    return PersistentMemoryDevice(geometry=DeviceGeometry(block_bytes=block_bytes))


class TestRegistry:
    def test_registry_contains_the_four_backends(self):
        assert set(BACKEND_REGISTRY) == {
            "blocked_memory",
            "dynamic_array",
            "ramdisk",
            "pmfs",
        }

    def test_paper_order_covers_all_backends(self):
        assert set(BACKEND_PAPER_ORDER) == set(BACKEND_REGISTRY)

    def test_make_backend_instantiates(self, device):
        backend = make_backend("pmfs", device)
        assert isinstance(backend, PmfsBackend)
        assert backend.device is device

    def test_make_backend_unknown_name(self, device):
        with pytest.raises(ConfigurationError):
            make_backend("nvdimm", device)

    def test_backend_names_match_registry_keys(self, device):
        for name, cls in BACKEND_REGISTRY.items():
            assert cls(device := PersistentMemoryDevice()).name == name


class TestStoreLifecycle:
    def test_create_and_drop(self, any_backend):
        t = any_backend.create_store("t")
        assert any_backend.stores() == [t]
        any_backend.drop_store(t)
        assert any_backend.stores() == []

    def test_a_label_is_not_an_identity(self, any_backend):
        first = any_backend.create_store("t")
        second = any_backend.create_store("t")
        assert first is not second and first != second
        any_backend.append_bulk(first, 100)
        assert (first.logical_bytes, second.logical_bytes) == (100, 0)
        any_backend.drop_store(first)
        assert any_backend.stores() == [second]

    def test_unknown_store_rejected(self, any_backend):
        dropped = any_backend.create_store("t")
        any_backend.drop_store(dropped)
        foreign = make_backend(any_backend.name, PersistentMemoryDevice())
        for store in (StoreStats("missing"), dropped, foreign.create_store("t")):
            with pytest.raises(UnknownCollectionError):
                any_backend.append_bulk(store, 10)
            with pytest.raises(UnknownCollectionError):
                any_backend.drop_store(store)

    def test_logical_bytes_track_appends(self, any_backend):
        t = any_backend.create_store("t")
        any_backend.append_bulk(t, 100)
        any_backend.append_bulk(t, 60)
        assert t.logical_bytes == 160

    def test_truncate_resets_logical_size(self, any_backend):
        t = any_backend.create_store("t")
        any_backend.append_bulk(t, 500)
        any_backend.truncate(t)
        assert t.logical_bytes == 0

    def test_negative_append_rejected(self, any_backend):
        t = any_backend.create_store("t")
        with pytest.raises(ConfigurationError):
            any_backend.append_bulk(t, -1)

    def test_negative_read_rejected(self, any_backend):
        t = any_backend.create_store("t")
        with pytest.raises(ConfigurationError):
            any_backend.read_bulk(t, -1)

    def test_read_charges_device_reads(self, any_backend):
        t = any_backend.create_store("t")
        any_backend.append_bulk(t, 640)
        before = any_backend.device.snapshot()
        any_backend.read_bulk(t, 640)
        delta = any_backend.device.snapshot() - before
        assert delta.cacheline_reads >= 10.0
        assert delta.cacheline_writes == 0

    def test_append_charges_device_writes(self, any_backend):
        t = any_backend.create_store("t")
        before = any_backend.device.snapshot()
        any_backend.append_bulk(t, 640)
        delta = any_backend.device.snapshot() - before
        assert delta.cacheline_writes >= 10.0


class TestBlockedMemory:
    def test_append_charges_exactly_payload(self, device):
        backend = BlockedMemoryBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 320)
        assert device.counters.cacheline_writes == pytest.approx(5.0)
        assert device.counters.overhead_ns == 0.0

    def test_read_charges_exactly_payload(self, device):
        backend = BlockedMemoryBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 320)
        before = device.snapshot()
        backend.read_bulk(t, 320)
        delta = device.snapshot() - before
        assert delta.cacheline_reads == pytest.approx(5.0)
        assert delta.cacheline_writes == 0.0

    def test_blocks_allocated_lazily(self, device):
        backend = BlockedMemoryBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 100)
        assert t.extra["blocks"] == 1
        backend.append_bulk(t, 2000)
        assert t.extra["blocks"] == 3

    def test_no_copy_on_expansion(self):
        device = device_with_blocks(256)
        backend = BlockedMemoryBackend(device)
        t = backend.create_store("t")
        for _ in range(20):
            backend.append_bulk(t, 100)
        # Writes equal the payload exactly: 20 * 100 / 64 cachelines.
        assert device.counters.cacheline_writes == pytest.approx(2000 / 64)


class TestDynamicArray:
    def test_expansion_copies_live_payload(self):
        device = device_with_blocks(128)
        backend = DynamicArrayBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 128)
        before = device.snapshot()
        backend.append_bulk(t, 64)  # triggers a doubling that copies 128 bytes
        delta = device.snapshot() - before
        assert delta.cacheline_reads == pytest.approx(2.0)
        assert delta.cacheline_writes == pytest.approx(2.0 + 1.0)

    def test_expansions_counter(self):
        backend = DynamicArrayBackend(device_with_blocks(64))
        t = backend.create_store("t")
        for _ in range(16):
            backend.append_bulk(t, 64)
        assert t.extra["expansions"] >= 4
        assert t.extra["copied_bytes"] > 0

    def test_writes_exceed_blocked_memory(self):
        """The write amplification the paper attributes to dynamic arrays."""
        blocked_device = PersistentMemoryDevice()
        dynamic_device = device_with_blocks(64)
        blocked = BlockedMemoryBackend(blocked_device)
        dynamic = DynamicArrayBackend(dynamic_device)
        for backend in (blocked, dynamic):
            t = backend.create_store("t")
            for _ in range(100):
                backend.append_bulk(t, 80)
        assert (
            dynamic_device.counters.cacheline_writes
            > blocked_device.counters.cacheline_writes
        )

    def test_reallocation_overhead_charged(self):
        device = device_with_blocks(64)
        backend = DynamicArrayBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 1024)
        assert device.counters.overhead_breakdown.get("reallocation", 0) > 0


class TestRamDisk:
    def test_small_write_rounded_to_fs_block(self, device):
        backend = RamDiskBackend(device, fs_block_bytes=512)
        t = backend.create_store("t")
        backend.append_bulk(t, 10)
        assert device.counters.cacheline_writes == pytest.approx(8.0)
        assert t.extra["padded_write_bytes"] == 502

    def test_small_read_rounded_to_fs_block(self, device):
        backend = RamDiskBackend(device, fs_block_bytes=512)
        t = backend.create_store("t")
        backend.append_bulk(t, 512)
        before = device.snapshot()
        backend.read_bulk(t, 100)
        assert (device.snapshot() - before).cacheline_reads == pytest.approx(8.0)
        assert t.extra["padded_read_bytes"] == 412

    def test_syscall_overhead_per_call(self, device):
        backend = RamDiskBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 512)
        backend.read_bulk(t, 512)
        assert device.counters.overhead_breakdown["syscall"] == pytest.approx(1400.0)

    def test_block_aligned_write_has_no_padding(self, device):
        backend = RamDiskBackend(device, fs_block_bytes=512)
        t = backend.create_store("t")
        backend.append_bulk(t, 1024)
        assert t.extra.get("padded_write_bytes", 0) == 0


class TestPmfs:
    def test_byte_granular_transfers(self, device):
        backend = PmfsBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 80)
        assert device.counters.cacheline_writes == pytest.approx(1.25)

    def test_small_per_call_overhead(self, device):
        backend = PmfsBackend(device)
        t = backend.create_store("t")
        backend.append_bulk(t, 64)
        backend.read_bulk(t, 64)
        assert device.counters.overhead_ns == pytest.approx(160.0)

    def test_cheaper_than_ramdisk_for_small_records(self):
        """PMFS avoids both block rounding and the syscall price."""
        pmfs_device = PersistentMemoryDevice()
        ramdisk_device = PersistentMemoryDevice()
        pmfs = PmfsBackend(pmfs_device)
        ramdisk = RamDiskBackend(ramdisk_device)
        for backend in (pmfs, ramdisk):
            t = backend.create_store("t")
            for _ in range(50):
                backend.append_bulk(t, 80)
        assert pmfs_device.elapsed_ns < ramdisk_device.elapsed_ns


class TestOverheadOrdering:
    def test_paper_overhead_ordering_for_identical_workload(self):
        """blocked memory <= pmfs <= ramdisk for the same append+scan load."""
        totals = {}
        for name in ("blocked_memory", "pmfs", "ramdisk"):
            device = PersistentMemoryDevice()
            backend = make_backend(name, device)
            t = backend.create_store("t")
            for _ in range(200):
                backend.append_bulk(t, 80)
            for _ in range(200):
                backend.read_bulk(t, 80)
            totals[name] = device.elapsed_ns
        assert totals["blocked_memory"] <= totals["pmfs"] <= totals["ramdisk"]
