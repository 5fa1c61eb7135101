"""PMFS-style persistence backend.

Models the paper's second implementation option (Section 3.2,
"Byte-addressable filesystem"): Intel's PMFS, a kernel-level filesystem
that maps files directly into the address space and serves file access
with CPU load/store instructions.  There is no block-level interface and
no page cache; what remains is a small per-call cost for crossing the
filesystem abstraction, which the paper observes to be close to -- but not
quite -- the blocked-memory ideal.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend, StoreStats
from repro.pmem.device import PersistentMemoryDevice

#: Per-call cost of the kernel-level file abstraction, ns.  An order of
#: magnitude below the RAM disk's system-call price: PMFS avoids the block
#: layer and the page cache but still performs permission checks and
#: mapping lookups.
DEFAULT_FILE_CALL_OVERHEAD_NS = 80.0


class PmfsBackend(PersistenceBackend):
    """Byte-addressable filesystem with a small fixed per-call overhead.

    Args:
        device: the device to charge I/O against.
        file_call_overhead_ns: software overhead charged once per
            append/read call.
        allocation_extent_bytes: granularity at which the filesystem
            extends a file's allocation (metadata only; no copy).
    """

    name = "pmfs"

    def __init__(
        self,
        device: PersistentMemoryDevice,
        file_call_overhead_ns: float = DEFAULT_FILE_CALL_OVERHEAD_NS,
        allocation_extent_bytes: int | None = None,
    ) -> None:
        super().__init__(device)
        if file_call_overhead_ns < 0:
            raise ConfigurationError("file_call_overhead_ns must be non-negative")
        self.file_call_overhead_ns = file_call_overhead_ns
        self.allocation_extent_bytes = (
            allocation_extent_bytes
            if allocation_extent_bytes is not None
            else device.geometry.block_bytes
        )
        if self.allocation_extent_bytes <= 0:
            raise ConfigurationError("allocation_extent_bytes must be positive")

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        needed = stats.logical_bytes + chunk_bytes * count
        self._grow_to(stats, needed, self.allocation_extent_bytes)
        # File content is written with store instructions at byte
        # granularity; only the payload itself is transferred.
        self.device.write_bulk(chunk_bytes, count)
        self.device.overhead(self.file_call_overhead_ns, "pmfs_call", count)

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        self.device.read_bulk(chunk_bytes, count)
        self.device.overhead(self.file_call_overhead_ns, "pmfs_call", count)
