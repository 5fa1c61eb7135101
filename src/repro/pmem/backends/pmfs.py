"""PMFS-style persistence backend.

Models the paper's second implementation option (Section 3.2,
"Byte-addressable filesystem"): Intel's PMFS, a kernel-level filesystem
that maps files directly into the address space and serves file access
with CPU load/store instructions.  There is no block-level interface and
no page cache; what remains is a small per-call cost for crossing the
filesystem abstraction, which the paper observes to be close to -- but not
quite -- the blocked-memory ideal.

The cost policy is fixed: every append or read call pays
:data:`FILE_CALL_OVERHEAD_NS`, and a file's allocation grows in extents of
one device-geometry block (metadata only; no copy).
"""

from __future__ import annotations

from repro.pmem.backends.base import PersistenceBackend, StoreStats

#: Per-call cost of the kernel-level file abstraction, ns.  An order of
#: magnitude below the RAM disk's system-call price: PMFS avoids the block
#: layer and the page cache but still performs permission checks and
#: mapping lookups.
FILE_CALL_OVERHEAD_NS = 80.0


class PmfsBackend(PersistenceBackend):
    """Byte-addressable filesystem with a small fixed per-call overhead."""

    name = "pmfs"

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        needed = stats.logical_bytes + chunk_bytes * count
        self._grow_to(stats, needed, self.device.geometry.block_bytes)
        # File content is written with store instructions at byte
        # granularity; only the payload itself is transferred.
        self.device.write_bulk(chunk_bytes, count)
        self.device.overhead(FILE_CALL_OVERHEAD_NS, "pmfs_call", count)

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        self.device.read_bulk(chunk_bytes, count)
        self.device.overhead(FILE_CALL_OVERHEAD_NS, "pmfs_call", count)
