"""Common interface for the persistence-layer backends.

A backend manages *stores*.  A store is the physical representation of
one persistent collection: the backend decides how appended bytes map
onto device writes (block-granular, doubling arrays, ...), and what
software overhead each operation carries.  The backend never sees record
payloads -- only byte counts -- because all pricing in the paper is in
cachelines.

A store's identity is the :class:`StoreStats` handle
:meth:`PersistenceBackend.create_store` returns; every other store
operation takes that handle.  Its label is for display only, so two
stores may share one.  A backend rejects a handle it does not hold (one
it dropped, or another backend's).

The data path is one shape: :meth:`PersistenceBackend.append_bulk` /
:meth:`PersistenceBackend.read_bulk` charge ``count`` identical transfers
of ``chunk_bytes`` each (``count`` defaults to one, e.g. for a partial
block).  A batch costs exactly what ``count`` single-chunk calls would
(identical device counters and store stats) but funnels into one
:class:`~repro.pmem.device.PersistentMemoryDevice` accounting call, so the
Python-level work is O(1) per batch.  Each subclass states its cost policy
once, for ``count`` chunks, in the ``_charge_append`` / ``_charge_read``
hooks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, UnknownCollectionError
from repro.pmem.device import PersistentMemoryDevice


@dataclass(eq=False)
class StoreStats:
    """Per-store bookkeeping kept by every backend, and the store's handle.

    Handles compare and hash by identity: two stores are the same store
    only if they are the same object, whatever their labels.
    """

    label: str
    logical_bytes: int = 0
    physical_bytes: int = 0
    append_calls: int = 0
    read_calls: int = 0
    truncate_calls: int = 0
    extra: dict = field(default_factory=dict)


class PersistenceBackend(ABC):
    """Abstract persistence layer between DRAM and persistent memory.

    Subclasses implement the cost policy of one of the four implementation
    techniques of Section 3.2.  All of them charge their costs against the
    shared :class:`~repro.pmem.device.PersistentMemoryDevice`.
    """

    #: Human-readable backend identifier (used in reports and figures).
    name: str = "abstract"

    def __init__(self, device: PersistentMemoryDevice) -> None:
        self.device = device
        #: The live stores' handles, in creation order (a dict as an ordered set).
        self._stores: dict[StoreStats, None] = {}

    # ------------------------------------------------------------------ #
    # Store lifecycle.
    # ------------------------------------------------------------------ #
    def create_store(self, label: str) -> StoreStats:
        """Create an empty store labelled ``label``; returns its handle."""
        stats = StoreStats(label=label)
        self._stores[stats] = None
        self._on_create(stats)
        return stats

    def drop_store(self, store: StoreStats) -> None:
        """Remove a store and release its device allocation."""
        self.device.release(self._require(store).physical_bytes)
        del self._stores[store]

    def stores(self) -> list[StoreStats]:
        """The handles of the live stores, in creation order."""
        return list(self._stores)

    # ------------------------------------------------------------------ #
    # Data-path operations: the cost policy lives in the subclasses.
    # ------------------------------------------------------------------ #
    def append_bulk(self, store: StoreStats, chunk_bytes: int, count: int = 1) -> None:
        """Append ``count`` chunks of ``chunk_bytes`` each, charging device writes.

        Cost-equivalent to ``count`` sequential single-chunk appends.
        """
        if chunk_bytes < 0:
            raise ConfigurationError("append size must be non-negative")
        if count < 0:
            raise ConfigurationError("append count must be non-negative")
        stats = self._require(store)
        if count and chunk_bytes:
            self._charge_append(stats, chunk_bytes, count)
        stats.logical_bytes += chunk_bytes * count
        stats.append_calls += count

    def read_bulk(self, store: StoreStats, chunk_bytes: int, count: int = 1) -> None:
        """Read ``count`` chunks of ``chunk_bytes`` each, charging device reads.

        Cost-equivalent to ``count`` sequential single-chunk reads.
        """
        if chunk_bytes < 0:
            raise ConfigurationError("read size must be non-negative")
        if count < 0:
            raise ConfigurationError("read count must be non-negative")
        stats = self._require(store)
        if count and chunk_bytes:
            self._charge_read(stats, chunk_bytes, count)
        stats.read_calls += count

    def truncate(self, store: StoreStats) -> None:
        """Discard the store's contents (cheap: metadata only)."""
        stats = self._require(store)
        self.device.release(stats.physical_bytes)
        stats.logical_bytes = 0
        stats.physical_bytes = 0
        self._on_truncate(stats)
        stats.truncate_calls += 1

    # ------------------------------------------------------------------ #
    # Hooks for subclasses.
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _charge_append(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        """Charge the device for ``count`` appends of ``chunk_bytes`` each.

        Called only with ``chunk_bytes`` and ``count`` positive.  The public
        :meth:`append_bulk` applies the ``logical_bytes`` update afterwards,
        so ``stats.logical_bytes`` is the pre-append size throughout.
        """

    @abstractmethod
    def _charge_read(self, stats: StoreStats, chunk_bytes: int, count: int) -> None:
        """Charge the device for ``count`` reads of ``chunk_bytes`` each."""

    def _on_create(self, stats: StoreStats) -> None:
        """Optional subclass hook run when a store is created."""

    def _on_truncate(self, stats: StoreStats) -> None:
        """Optional subclass hook run when a store is truncated, after its
        logical and physical sizes are reset to zero and its allocation
        released."""

    # ------------------------------------------------------------------ #
    # Internal helpers.
    # ------------------------------------------------------------------ #
    def _require(self, store: StoreStats) -> StoreStats:
        if store not in self._stores:
            raise UnknownCollectionError(
                f"backend {self.name!r} does not hold store {store.label!r}: it "
                "was dropped, or belongs to another backend"
            )
        return store

    def _grow_physical(self, stats: StoreStats, nbytes: int) -> None:
        """Record ``nbytes`` of additional physical allocation."""
        self.device.allocate(nbytes)
        stats.physical_bytes += nbytes

    def _grow_to(self, stats: StoreStats, needed: int, granule_bytes: int) -> int:
        """Grow the store's allocation to cover ``needed`` logical bytes.

        Allocates, in one shot, the fewest whole granules (blocks,
        filesystem records, extents) that cover ``needed`` -- the granules
        a chunk-by-chunk append would have allocated one at a time.
        Returns the number of granules allocated (0 when the store already
        fits).
        """
        if stats.physical_bytes >= needed:
            return 0
        shortfall = needed - stats.physical_bytes
        granules = -(-shortfall // granule_bytes)  # ceiling division
        self._grow_physical(stats, granules * granule_bytes)
        return granules

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(stores={len(self._stores)})"
