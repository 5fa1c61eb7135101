"""Dynamic-array persistence backend.

Models the paper's "dynamic arrays" option (Section 3.2): the runtime's
memory allocator is replaced with one that allocates from persistent
memory, but data structures are left unchanged.  The canonical structure
is a C++ ``std::vector``: when capacity is exhausted it allocates a chunk
twice as large, copies every element over, and releases the old chunk.
On persistent memory that copy is a full re-write of the collection, which
is exactly the write amplification the paper blames for this backend's
poor performance.

The cost policy is fixed: a store starts at one device-geometry block,
every expansion doubles its capacity (:data:`GROWTH_FACTOR`) and pays
:data:`REALLOCATION_OVERHEAD_NS` of allocator work on top of the copy.
"""

from __future__ import annotations

from repro.pmem.backends.base import PersistenceBackend, StoreStats

#: Capacity multiplier on expansion: the classic ``std::vector`` doubling.
GROWTH_FACTOR = 2

#: Software cost of one allocator call (allocate + free bookkeeping), ns.
REALLOCATION_OVERHEAD_NS = 120.0


class DynamicArrayBackend(PersistenceBackend):
    """Capacity-doubling array over a persistent-memory allocator."""

    name = "dynamic_array"

    def _on_create(self, stats: StoreStats) -> None:
        self._grow_physical(stats, self.device.geometry.block_bytes)
        stats.extra["expansions"] = 0
        stats.extra["copied_bytes"] = 0

    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        # Replay the expansion schedule of ``count`` sequential appends: an
        # expansion triggered by chunk i copies the live bytes accumulated
        # by chunks 0..i-1, exactly as appending the chunks one at a time
        # would.  Expansions are logarithmic in the total growth; the
        # payload itself is charged in one vectorized write.
        start = stats.logical_bytes
        end = start + chunk_bytes * count
        while stats.physical_bytes < end:
            fit = min(count, (stats.physical_bytes - start) // chunk_bytes)
            self._expand(stats, start + fit * chunk_bytes)
        self.device.write_bulk(chunk_bytes, count)

    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        self.device.read_bulk(chunk_bytes, count)

    def _expand(self, stats: StoreStats, live: int) -> None:
        """Double the capacity and copy the ``live`` payload bytes over.

        The copy is a persistent-memory read of the current contents plus a
        persistent-memory write of the same amount at the new location --
        that write is the amplification this backend exists to demonstrate.
        """
        old_capacity = stats.physical_bytes
        new_capacity = old_capacity * GROWTH_FACTOR
        if live:
            self.device.read(live)
            self.device.write(live)
            stats.extra["copied_bytes"] = stats.extra.get("copied_bytes", 0) + live
        self.device.overhead(REALLOCATION_OVERHEAD_NS, label="reallocation")
        self._grow_physical(stats, new_capacity - old_capacity)
        stats.extra["expansions"] = stats.extra.get("expansions", 0) + 1

    def _on_truncate(self, stats: StoreStats) -> None:
        # Truncation resets to the initial one-block capacity, as releasing
        # and re-acquiring the initial chunk is how the C++ implementation
        # recycles vectors between runs.
        self._grow_physical(stats, self.device.geometry.block_bytes)
