"""Tests for the simulated persistent-memory device."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.pmem.device import DeviceGeometry, PersistentMemoryDevice
from repro.pmem.latency import LatencyModel


class TestDeviceGeometry:
    def test_defaults_match_paper(self):
        geometry = DeviceGeometry()
        assert geometry.cacheline_bytes == 64
        assert geometry.block_bytes == 1024

    def test_block_must_be_multiple_of_cacheline(self):
        with pytest.raises(ConfigurationError):
            DeviceGeometry(block_bytes=1000)

    def test_bytes_to_cachelines_fractional(self):
        geometry = DeviceGeometry()
        assert geometry.bytes_to_cachelines(80) == pytest.approx(1.25)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceGeometry().bytes_to_cachelines(-1)

    def test_non_positive_block_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceGeometry(block_bytes=0)


class TestAccounting:
    def test_read_charges_latency(self, device):
        cost = device.read(640)  # ten cachelines
        assert cost == pytest.approx(100.0)
        assert device.counters.cacheline_reads == pytest.approx(10.0)

    def test_write_charges_latency(self, device):
        cost = device.write(640)
        assert cost == pytest.approx(1500.0)
        assert device.counters.cacheline_writes == pytest.approx(10.0)

    def test_elapsed_equals_transfer_plus_overhead(self, device):
        device.read(128)
        device.write(128)
        device.overhead(42.0, label="syscall")
        expected = 2 * 10.0 + 2 * 150.0 + 42.0
        assert device.elapsed_ns == pytest.approx(expected)

    def test_write_read_ratio_property(self, device):
        assert device.write_read_ratio == pytest.approx(15.0)

    def test_snapshot_delta_isolates_a_region(self, device):
        device.read(64)
        before = device.snapshot()
        device.write(64)
        delta = device.snapshot() - before
        assert delta.cacheline_reads == 0
        assert delta.cacheline_writes == pytest.approx(1.0)

    def test_snapshot_delta_attributes_overhead_labels(self, device):
        device.overhead(5.0, label="syscall")
        before = device.snapshot()
        device.overhead(42.0, label="syscall")
        device.overhead(8.0, label="reallocation")
        assert (device.snapshot() - before).overhead_breakdown == {
            "syscall": 42.0,
            "reallocation": 8.0,
        }

    def test_sub_cacheline_byte_totals_do_not_drift(self, device):
        # Regression: int(nbytes) floored every fractional-cacheline
        # transfer, so 10 x 6.4-byte reads reported 60 bytes, not 64.
        for _ in range(10):
            device.read(6.4)
            device.write(6.4)
        snapshot = device.snapshot()
        assert snapshot.bytes_read == 64
        assert snapshot.bytes_written == 64

    def test_sub_cacheline_byte_totals_do_not_drift_in_bulk(self, device):
        device.read_bulk(6.4, count=10)
        device.write_bulk(6.4, count=10)
        snapshot = device.snapshot()
        assert snapshot.bytes_read == 64
        assert snapshot.bytes_written == 64

    def test_negative_read_rejected(self, device):
        with pytest.raises(ConfigurationError):
            device.read(-1)

    def test_negative_overhead_rejected(self, device):
        with pytest.raises(ConfigurationError):
            device.overhead(-1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        reads=st.lists(st.integers(min_value=0, max_value=10_000), max_size=20),
        writes=st.lists(st.integers(min_value=0, max_value=10_000), max_size=20),
    )
    def test_clock_invariant(self, reads, writes):
        """elapsed == reads * r + writes * w for any access sequence."""
        device = PersistentMemoryDevice()
        for nbytes in reads:
            device.read(nbytes)
        for nbytes in writes:
            device.write(nbytes)
        expected = (
            sum(reads) / 64 * 10.0 + sum(writes) / 64 * 150.0
        )
        assert device.elapsed_ns == pytest.approx(expected)


class TestCapacity:
    def test_release_returns_capacity(self, device):
        device.allocate(1024)
        device.release(512)
        device.allocate(256)
        assert device.allocated_bytes == 768

    def test_release_never_goes_negative(self, device):
        device.release(10_000)
        assert device.allocated_bytes == 0

    def test_concurrent_allocate_and_release_lose_no_update(self, device):
        # A client thread drops stores while the session's worker
        # allocates for a query; a lost update would leave bytes.
        rounds, pairs = 20_000, 2
        device.allocate(rounds * pairs)
        start = threading.Barrier(2 * pairs)

        def churn(step):
            start.wait()
            for _ in range(rounds):
                step(1)

        workers = [
            threading.Thread(target=churn, args=(step,))
            for step in (device.allocate, device.release) * pairs
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert device.allocated_bytes == rounds * pairs

    def test_custom_latency_model(self):
        device = PersistentMemoryDevice(latency=LatencyModel(read_ns=20, write_ns=40))
        device.read(64)
        device.write(64)
        assert device.elapsed_ns == pytest.approx(60.0)
        assert device.write_read_ratio == pytest.approx(2.0)
