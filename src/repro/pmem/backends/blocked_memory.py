"""Blocked-memory persistence backend.

The paper's best-performing option (Section 3.2, "Blocked memory"): keep
the interface of a dynamic array but organize storage as a linked list of
fixed-size memory blocks.  Memory is allocated one block at a time with no
copying on expansion, so the only costs are the unavoidable persistent
memory reads and writes of the payload itself.  The block is the device
geometry's block size (1024 bytes in the paper's experiments).
"""

from __future__ import annotations

from repro.pmem.backends.base import PersistenceBackend, StoreStats


class BlockedMemoryBackend(PersistenceBackend):
    """Linked list of device-geometry blocks; zero software overhead."""

    name = "blocked_memory"

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        # Allocate as many new blocks as the appends spill into.  Block
        # allocation is a pointer update in the block chain: no data is
        # copied, so only the payload write is charged.
        needed = stats.logical_bytes + chunk_bytes * count
        new_blocks = self._grow_to(
            stats, needed, self.device.geometry.block_bytes
        )
        if new_blocks:
            stats.extra["blocks"] = stats.extra.get("blocks", 0) + new_blocks
        self.device.write_bulk(chunk_bytes, count)

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        # Accessor methods over the block chain provide byte addressability,
        # so a read costs exactly the payload transfer.
        self.device.read_bulk(chunk_bytes, count)

    def _on_truncate(self, stats: StoreStats) -> None:
        stats.extra["blocks"] = 0
