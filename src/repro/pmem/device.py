"""The simulated persistent-memory device.

The device is the single funnel through which every persistent-memory
access in the library flows.  It owns:

* the :class:`~repro.pmem.latency.LatencyModel` (read/write latencies and
  the asymmetry ratio ``lambda``),
* the :class:`DeviceGeometry` (cacheline and block sizes),
* the :class:`~repro.pmem.metrics.IOCounters` used for reporting.

Persistence backends (Section 3.2) never talk to the latency model
directly; they call :meth:`PersistentMemoryDevice.read_bulk`,
:meth:`~PersistentMemoryDevice.write_bulk` and
:meth:`~PersistentMemoryDevice.overhead`, each charging ``count`` identical
accesses, which keeps the accounting in one place and guarantees the
invariant ``elapsed == transfer + overhead``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.pmem.latency import LatencyModel
from repro.pmem.metrics import IOCounters, IOSnapshot

#: Cacheline size assumed by the paper (Section 2: "typically equal to the
#: cacheline size, i.e. 64 or 128 bytes").
DEFAULT_CACHELINE_BYTES = 64

#: Block size the paper settles on for its experiments (Section 4 reports
#: 1024-byte blocks after a block-size sensitivity check).
DEFAULT_BLOCK_BYTES = 1024


@dataclass(frozen=True)
class DeviceGeometry:
    """Static geometry of the simulated device.

    Attributes:
        cacheline_bytes: unit in which the device is accessed and in which
            reads/writes are counted ("buffers" in the paper's analysis);
            always :data:`DEFAULT_CACHELINE_BYTES`.
        block_bytes: unit in which persistent collections group their data
            to amortize access costs (Figure 3); must be a multiple of the
            cacheline size.

    The device's capacity is unbounded: the experiments never fill it.
    """

    block_bytes: int = DEFAULT_BLOCK_BYTES
    cacheline_bytes: int = field(default=DEFAULT_CACHELINE_BYTES, init=False)

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if self.block_bytes % self.cacheline_bytes != 0:
            raise ConfigurationError(
                "block_bytes must be a multiple of cacheline_bytes "
                f"(got block={self.block_bytes}, cacheline={self.cacheline_bytes})"
            )

    def bytes_to_cachelines(self, nbytes: int | float) -> float:
        """Convert a byte count to (fractional) cachelines.

        The paper's analysis drops floor/ceiling functions; fractional
        cachelines keep the simulator consistent with that simplification.
        """
        if nbytes < 0:
            raise ConfigurationError("byte count must be non-negative")
        return nbytes / self.cacheline_bytes


class PersistentMemoryDevice:
    """Discrete cost simulator for a persistent-memory device.

    The device does not store payload bytes -- collections keep their own
    record data in Python structures -- it *prices* every access and keeps
    the running counters that the experiments report.  This separation is
    what makes a pure-Python reproduction feasible: correctness of the
    algorithms is checked on the real record data, while the performance
    model is evaluated exactly, independently of Python's own speed.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        geometry: DeviceGeometry | None = None,
    ) -> None:
        self.latency = latency or LatencyModel()
        self.geometry = geometry or DeviceGeometry()
        self._counters = IOCounters()
        self._allocated_bytes = 0
        # A client thread may create or drop collections on the device
        # while the session's worker allocates for a query: the one
        # cross-thread write.
        self._allocation_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Accounting primitives used by the persistence backends.  Each charges
    # ``count`` identical accesses in one counter update: the latency model
    # is linear per cacheline, so the totals are those of ``count`` single
    # accesses, with O(1) Python work.  ``read``/``write`` are the
    # single-access forms.
    # ------------------------------------------------------------------ #
    def read(self, nbytes: int | float) -> float:
        """Charge a read of ``nbytes`` bytes; returns the cost in ns."""
        return self._transfer(nbytes, 1, write=False)

    def write(self, nbytes: int | float) -> float:
        """Charge a write of ``nbytes`` bytes; returns the cost in ns."""
        return self._transfer(nbytes, 1, write=True)

    def read_bulk(self, nbytes: int | float, count: int) -> float:
        """Charge ``count`` reads of ``nbytes`` each; returns total cost in ns."""
        return self._transfer(nbytes, count, write=False)

    def write_bulk(self, nbytes: int | float, count: int) -> float:
        """Charge ``count`` writes of ``nbytes`` each; returns total cost in ns."""
        return self._transfer(nbytes, count, write=True)

    def overhead(
        self, cost_ns: float, label: str = "other", count: int = 1
    ) -> float:
        """Charge ``count`` software overheads (system call, allocator work, ...)."""
        if cost_ns < 0:
            raise ConfigurationError("overhead must be non-negative")
        if count < 0:
            raise ConfigurationError("overhead count must be non-negative")
        if count == 0:
            return 0.0
        self._counters.record_overhead(cost_ns * count, label)
        return cost_ns * count

    def _transfer(self, nbytes: int | float, count: int, write: bool) -> float:
        if nbytes < 0 or count < 0:
            raise ConfigurationError(
                f"cannot {'write' if write else 'read'} {count} x {nbytes} "
                "bytes: sizes and counts must be non-negative"
            )
        if count == 0:
            return 0.0
        cachelines = self.geometry.bytes_to_cachelines(nbytes)
        if write:
            cost = self.latency.write_cost_ns(cachelines)
            self._counters.record_write(cachelines, nbytes, cost, count)
        else:
            cost = self.latency.read_cost_ns(cachelines)
            self._counters.record_read(cachelines, nbytes, cost, count)
        return cost * count

    # ------------------------------------------------------------------ #
    # Allocation accounting.
    # ------------------------------------------------------------------ #
    def allocate(self, nbytes: int) -> None:
        """Record ``nbytes`` of device space taken by a store."""
        if nbytes < 0:
            raise ConfigurationError("allocation size must be non-negative")
        with self._allocation_lock:
            self._allocated_bytes += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of previously allocated space to the device."""
        if nbytes < 0:
            raise ConfigurationError("release size must be non-negative")
        with self._allocation_lock:
            self._allocated_bytes = max(0, self._allocated_bytes - nbytes)

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #
    @property
    def counters(self) -> IOCounters:
        return self._counters

    @property
    def elapsed_ns(self) -> float:
        """Total simulated time accumulated on this device."""
        return self._counters.total_ns

    @property
    def write_read_ratio(self) -> float:
        """The device's asymmetry ratio ``lambda``."""
        return self.latency.write_read_ratio

    def snapshot(self) -> IOSnapshot:
        return self._counters.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PersistentMemoryDevice(r={self.latency.read_ns}ns, "
            f"w={self.latency.write_ns}ns, lambda={self.write_read_ratio:.1f}, "
            f"elapsed={self.elapsed_ns / 1e6:.3f}ms)"
        )
