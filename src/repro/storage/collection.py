"""Persistent collections.

A persistent collection is the unit the algorithms and the runtime operate
on: an append-only sequence of records hosted either in DRAM or on the
persistent device through one of the Section 3.2 backends.  A
materialized collection holds its own backend store: the handle
(:attr:`PersistentCollection.store`) is the store's identity, and the
collection's name is only its label, so two collections never share a
store, whatever their names.

Collections can be in one of three live states, mirroring the paper's
``cstatus_t`` (Listing 1), and one final one:

``MEMORY``
    Purely in-DRAM; accesses are free as far as the device is concerned.

``MATERIALIZED``
    Physically present on the persistent device; appends charge writes and
    scans charge reads through the collection's backend.

``DEFERRED``
    Declared but not physically present.  Scanning a deferred collection
    delegates to its operator context, which reconstructs the records by
    replaying the control-flow graph from the oldest materialized ancestor
    (Section 3.1).  Its length is known only once a scan ends, so
    ``len()`` raises; :attr:`PersistentCollection.estimated_records` is
    the one place its context's estimate is read.

``DROPPED``
    Its work has ended: :meth:`PersistentCollection.drop` (directly, or
    through its :class:`StoreOwner`'s release) dropped its store and let
    go of its operator context.  Scanning, measuring or extending it
    raises :class:`~repro.exceptions.CollectionStateError`: a scan of the
    records it retains would charge no reads.  They stay inspectable
    through the no-charge :attr:`PersistentCollection.records`.

One I/O shape serves every state.  Records are written with
:meth:`PersistentCollection.extend`, which charges a stream the same
however it is cut into calls, so producers extend their output directly,
a block or a batch at a time.  They are read with
:meth:`PersistentCollection.scan_blocks` or its flattened form
:meth:`PersistentCollection.scan`.  Both charge whole block batches in
single vectorized backend calls, so the Python work is O(1) per batch
instead of O(records).  A ``scan_blocks`` list is a *charge batch* of
whole I/O blocks: the unit of Python work and of one backend charge, not
modelled DRAM.  :meth:`PersistentCollection.charge_scan` is the one
function that prices a scanned range; a deferred collection's replay
charges its root through it too, and
:meth:`PersistentCollection.charge_rescan` charges a pass over records it
already holds as a drained scan, without handing them out.

A pass that hash-partitions a settled collection whole needs only its
buckets: :meth:`PersistentCollection.partitioned` computes them, with the
one hash of :mod:`repro.hashing`, and a sealed collection keeps them, so
shard routing and every join's partition pass over it bucket it once and
are charged per pass through ``charge_rescan``.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Iterable, Iterator, Optional

from repro import hashing
from repro.exceptions import CollectionStateError, ConfigurationError
from repro.pmem.backends.base import PersistenceBackend, StoreStats
from repro.pmem.device import DEFAULT_BLOCK_BYTES
from repro.storage.schema import Schema, WISCONSIN_SCHEMA

#: Whole I/O blocks per ``scan_blocks`` list, charged in one backend call.
DEFAULT_CHARGE_BATCH_BLOCKS = 64

#: ``(num_partitions, key_index)`` pairs whose buckets a sealed collection
#: keeps (:meth:`PersistentCollection.partitioned`), least recently used
#: evicted first.
PARTITION_MEMO_ENTRIES = 4


class CollectionStatus(enum.Enum):
    """Lifecycle state of a persistent collection."""

    MEMORY = "memory"
    MATERIALIZED = "materialized"
    DEFERRED = "deferred"
    DROPPED = "dropped"


class PersistentCollection:
    """Append-only record collection over a persistence backend.

    Record payloads are kept as Python tuples (the simulator prices the
    I/O, it does not store bytes), while every append and scan of a
    materialized collection is charged to the backend in block-sized
    chunks, which is how the persistence layer of Figure 3 amortizes
    cacheline I/O.

    Args:
        name: the collection's label (its store's too).  Only a label:
            the collection object is its identity, to its store and to an
            operator context alike, so any number of collections may
            share one.
        backend: persistence backend for MATERIALIZED collections.  May be
            ``None`` for purely in-memory collections.
        schema: record schema; defaults to the paper's Wisconsin schema.
        status: initial lifecycle state.
        context: optional operator context (duck-typed: needs ``assess``,
            ``produce`` and ``reconstruct``) used for DEFERRED collections.

    The I/O granularity between DRAM and the device,
    :attr:`block_bytes`, is the backend device's block size
    (:data:`~repro.pmem.device.DEFAULT_BLOCK_BYTES` without a backend).
    """

    def __init__(
        self,
        name: str = "collection",
        backend: Optional[PersistenceBackend] = None,
        schema: Schema = WISCONSIN_SCHEMA,
        status: CollectionStatus = CollectionStatus.MATERIALIZED,
        context=None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.backend = backend
        self.context = context
        self._status = status
        self._records: list[tuple] = []
        self._sealed = False
        self.block_bytes = (
            DEFAULT_BLOCK_BYTES
            if backend is None
            else backend.device.geometry.block_bytes
        )
        #: The backend store's handle while MATERIALIZED, else ``None``.
        self.store: StoreStats | None = None
        if status is CollectionStatus.MATERIALIZED:
            if backend is None:
                raise ConfigurationError(
                    f"collection {self.name!r} is MATERIALIZED but has no backend"
                )
            self.store = backend.create_store(self.name)
        #: bytes appended since the last block flush to the backend
        self._pending_bytes = 0
        #: :meth:`partitioned`'s memo while sealed, made on first use:
        #: ``(num_partitions, key_index)`` -> buckets, least recently used
        #: first.
        self._partitions: dict | None = None

    # ------------------------------------------------------------------ #
    # State.
    # ------------------------------------------------------------------ #
    @property
    def status(self) -> CollectionStatus:
        return self._status

    @property
    def is_memory(self) -> bool:
        return self._status is CollectionStatus.MEMORY

    @property
    def is_materialized(self) -> bool:
        return self._status is CollectionStatus.MATERIALIZED

    @property
    def is_deferred(self) -> bool:
        return self._status is CollectionStatus.DEFERRED

    def mark_materialized(self) -> None:
        """Give the collection a fresh store so that it can receive records.

        Promotes a DEFERRED or MEMORY collection.  A DROPPED one (the
        exchange destination of a plan executed again) starts afresh: it
        lets go of the records it retained.
        """
        if self._status is CollectionStatus.MATERIALIZED:
            return
        if self.backend is None:
            raise CollectionStateError(
                f"cannot materialize {self.name!r}: no backend attached"
            )
        if self._status is CollectionStatus.DROPPED:
            self._records = []
            self._sealed = False
        self.store = self.backend.create_store(self.name)
        self._status = CollectionStatus.MATERIALIZED

    def open(self) -> None:
        """Assess-and-produce protocol of the paper's ``Collection::open``.

        Deferred collections ask their operator context whether they should
        be materialized; if the verdict (or the prior state) is
        MATERIALIZED but the records are not yet produced, the context
        produces them by replaying the control-flow graph.
        """
        if self._status is CollectionStatus.DEFERRED and self.context is not None:
            self.context.assess(self)
        if self._status is CollectionStatus.MATERIALIZED and self.context is not None:
            if self.context.is_pending(self):
                self.context.produce(self)

    # ------------------------------------------------------------------ #
    # Writing.
    # ------------------------------------------------------------------ #
    def extend(self, records: Iterable[tuple]) -> None:
        """Append records, charging the full blocks they complete in bulk.

        Appended bytes accumulate into ``block_bytes`` blocks: every block
        they fill is charged, all in one backend call, and the partial
        block stays pending until more records or :meth:`flush` complete
        it.  So how a stream is cut into ``extend`` calls never changes
        what it costs.  An empty extend touches no state, even on a sealed
        collection.
        """
        if not isinstance(records, list):
            records = list(records)
        if not records:
            return
        if self._sealed:
            raise CollectionStateError(f"collection {self.name!r} is sealed")
        status = self._status
        if status is CollectionStatus.DEFERRED:
            raise CollectionStateError(
                f"cannot append to deferred collection {self.name!r}; "
                "materialize it first"
            )
        if status is CollectionStatus.DROPPED:
            raise self._dropped_error()
        self._records.extend(records)
        if status is CollectionStatus.MATERIALIZED:
            total = self._pending_bytes + len(records) * self.schema.record_bytes
            full_blocks, self._pending_bytes = divmod(total, self.block_bytes)
            if full_blocks:
                self.backend.append_bulk(self.store, self.block_bytes, full_blocks)

    def flush(self) -> None:
        """Flush any partially filled block to the backend."""
        if self._status is CollectionStatus.MATERIALIZED and self._pending_bytes:
            self.backend.append_bulk(self.store, self._pending_bytes)
            self._pending_bytes = 0

    def seal(self) -> None:
        """Flush and forbid further appends (a completed run or output)."""
        self.flush()
        self._sealed = True

    def clear(self) -> None:
        """Discard all records; a materialized store is truncated."""
        self._records = []
        self._pending_bytes = 0
        self._sealed = False
        self._partitions = None
        if self.store is not None:
            self.backend.truncate(self.store)

    def drop(self) -> None:
        """End the collection's life: drop its store, if it has one.

        The one drop path, for direct drops and a :class:`StoreOwner`'s
        release alike.  The collection becomes DROPPED and lets go of its
        operator context, so a derived collection and its context never
        keep each other alive.  Dropping a DROPPED collection does nothing.
        """
        if self.store is not None:
            self.backend.drop_store(self.store)
            self.store = None
        self._status = CollectionStatus.DROPPED
        self.context = None
        self._pending_bytes = 0
        self._partitions = None

    def _dropped_error(self) -> CollectionStateError:
        return CollectionStateError(
            f"collection {self.name!r} was dropped when its work ended"
        )

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    @property
    def records_per_block(self) -> int:
        """Records per I/O block: the fewest whose payload fills ``block_bytes``."""
        return max(1, -(-self.block_bytes // self.schema.record_bytes))

    def charge_scan(self, start: int, stop: int) -> None:
        """Charge the reads of a fully consumed scan of records ``[start, stop)``.

        One ``read_bulk`` of ``blocks`` chunks for the whole I/O blocks
        counted from ``start``, then one single-chunk ``read_bulk`` for the
        partial tail block.  Only a MATERIALIZED collection charges
        anything.
        """
        if self._status is not CollectionStatus.MATERIALIZED:
            return
        record_bytes = self.schema.record_bytes
        per_block = self.records_per_block
        blocks, tail = divmod(max(0, stop - start), per_block)
        if blocks:
            self.backend.read_bulk(self.store, per_block * record_bytes, blocks)
        if tail:
            self.backend.read_bulk(self.store, tail * record_bytes)

    def charge_rescan(self, start: int = 0, stop: int | None = None) -> None:
        """Charge a drained ``scan_blocks(start, stop)`` without reading it.

        For a pass that rescans records it already holds.  A MATERIALIZED
        collection prices the clipped range through :meth:`charge_scan`:
        one ``read_bulk`` for all its whole blocks and one for the tail,
        the same counters as the scan's per-batch calls, because a bulk
        call costs what its chunks do one by one.  A MEMORY collection
        charges nothing, a DEFERRED one drains its replay, and a DROPPED
        one raises, as its scan would.
        """
        status = self._status
        if status is CollectionStatus.MATERIALIZED:
            first, last, _ = slice(start, stop).indices(len(self._records))
            self.charge_scan(first, last)
        elif status is CollectionStatus.DEFERRED:
            deque(self.scan_blocks(start, stop), maxlen=0)
        elif status is CollectionStatus.DROPPED:
            raise self._dropped_error()

    def scan_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[list[tuple]]:
        """Yield insertion-order record batches, charging reads in bulk.

        Each list is one *charge batch*: up to
        :data:`DEFAULT_CHARGE_BATCH_BLOCKS` whole I/O blocks; a partial
        final block is a list of its own.  ``start``/``stop`` read a
        contiguous slice without paying for the skipped prefix --
        collections are directly addressable, which is the assumption the
        paper's segment-processing cost models make.  A materialized
        collection charges each list through :meth:`charge_scan` just
        before yielding it, so an abandoned scan has paid for exactly the
        lists it handed out.

        A deferred collection yields its operator context's replay
        (``reconstruct``) in lists of the same size.  The replay charges its
        root for whole blocks a root charge batch at a time, as it derives,
        and for the root's partial tail block only once it runs past the
        root's last record.  So a fully consumed deferred scan costs exactly
        what the replay contract says, while an abandoned one has paid for
        the whole blocks of every root batch it derived -- at most one root
        charge batch beyond the records it handed out -- and no tail.  No
        operator sizes a DRAM structure from a list's length.
        """
        if self._status is CollectionStatus.DROPPED:
            raise self._dropped_error()
        per_block = self.records_per_block
        step = per_block * DEFAULT_CHARGE_BATCH_BLOCKS
        if self._status is CollectionStatus.DEFERRED:
            if self.context is None:
                raise CollectionStateError(
                    f"deferred collection {self.name!r} has no operator context"
                )
            stream = self.context.reconstruct(self, start=start, stop=stop)
            while batch := list(itertools.islice(stream, step)):
                yield batch
            return
        records = self._records
        start, stop, _ = slice(start, stop).indices(len(records))
        full_stop = start + max(0, stop - start) // per_block * per_block
        for position in range(start, full_stop, step):
            end = min(position + step, full_stop)
            self.charge_scan(position, end)
            yield records[position:end]
        if full_stop < stop:
            self.charge_scan(full_stop, stop)
            yield records[full_stop:stop]

    def scan(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """The records of :meth:`scan_blocks`, one at a time (flattened in C)."""
        return itertools.chain.from_iterable(self.scan_blocks(start, stop))

    def __iter__(self) -> Iterator[tuple]:
        return self.scan()

    def __len__(self) -> int:
        """The record count of a settled collection.

        A DEFERRED collection is never written, so its length is unknown
        until a scan of it ends: asking raises.  Size structures from
        :attr:`estimated_records` and stop on an exhausted scan instead.
        """
        if self._status is CollectionStatus.DEFERRED:
            raise CollectionStateError(
                f"deferred collection {self.name!r} has no length until a "
                "scan of it ends; size with estimated_records"
            )
        if self._status is CollectionStatus.DROPPED:
            raise self._dropped_error()
        return len(self._records)

    @property
    def estimated_records(self) -> int:
        """Records to size partitions, boundaries and workspaces for.

        The exact count of a settled collection; the operator context's
        estimate for a DEFERRED one, which may be wrong either way, so no
        loop may stop on it.
        """
        if self._status is CollectionStatus.DEFERRED:
            if self.context is None:
                raise CollectionStateError(
                    f"deferred collection {self.name!r} has no operator context"
                )
            return self.context.estimated_cardinality(self)
        return len(self._records)

    @property
    def records(self) -> list[tuple]:
        """Direct (no-charge) access to the record payloads.

        Intended for tests and assertions; algorithm code must use
        :meth:`scan` so that reads are priced.
        """
        return self._records

    @property
    def nbytes(self) -> int:
        """Logical size of the collection in bytes."""
        return len(self._records) * self.schema.record_bytes

    @property
    def num_buffers(self) -> float:
        """Size of the collection in device cachelines (the paper's |T|)."""
        if self.backend is None:
            return self.nbytes / 64
        return self.backend.device.geometry.bytes_to_cachelines(self.nbytes)

    def partitioned(self, num_partitions: int, key_index: int) -> list[list[tuple]]:
        """The records' hash buckets, each in input order.

        ``buckets[p]`` holds, in insertion order, every record whose
        attribute ``key_index`` hashes to ``p`` of ``num_partitions``
        (:func:`~repro.hashing.partition_of`).  Reads the no-charge
        :attr:`records`, so it charges nothing: a caller that stands for a
        pass over the collection charges it with :meth:`charge_rescan`.

        A sealed collection cannot change until :meth:`clear` or
        :meth:`drop`, which empty the memo, so it keeps its buckets for the
        last :data:`PARTITION_MEMO_ENTRIES` ``(num_partitions, key_index)``
        pairs asked for: the sharded planner's exchanges and the joins'
        partition passes over it bucket each pair once.  An unsealed
        collection is bucketed afresh every time.  The memo is simulator
        bookkeeping over tuples the collection already holds, like a
        ranked sort's ranking, not modelled DRAM.
        """
        if self._status is CollectionStatus.DEFERRED:
            raise CollectionStateError(
                f"deferred collection {self.name!r} holds no records to partition"
            )
        if not self._sealed:
            return hashing.buckets_of(self._records, num_partitions, key_index)
        key = (num_partitions, key_index)
        memo = self._partitions
        if memo is None:
            memo = self._partitions = {}
        buckets = memo.pop(key, None)
        if buckets is None:
            buckets = hashing.buckets_of(self._records, num_partitions, key_index)
            if len(memo) >= PARTITION_MEMO_ENTRIES:
                del memo[next(iter(memo))]
        memo[key] = buckets
        return buckets

    def keys(self) -> list[int]:
        """The key column, without charging reads (testing helper)."""
        return [self.schema.key(record) for record in self._records]

    def is_sorted(self, key: Callable[[tuple], int] | None = None) -> bool:
        """Whether the records are in non-decreasing key order."""
        key_fn = key or self.schema.key
        previous = None
        for record in self._records:
            current = key_fn(record)
            if previous is not None and current < previous:
                return False
            previous = current
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PersistentCollection(name={self.name!r}, status={self._status.value}, "
            f"records={len(self._records)})"
        )


class StoreOwner:
    """The collections of one unit of work, dropped together when it ends.

    A run or a query registers each collection it creates with
    :meth:`adopt`, where it creates it, and calls :meth:`release` when it
    ends, on success and on failure.  Release drops every adopted
    collection (:meth:`PersistentCollection.drop`): each becomes DROPPED,
    and the store of each that had one leaves its backend.  No backend
    charges a drop, so only the device's allocation moves.
    """

    def __init__(self) -> None:
        self._collections: list[PersistentCollection] = []

    def adopt(self, collection: PersistentCollection) -> PersistentCollection:
        """Own ``collection``'s store from now on; returns the collection."""
        self._collections.append(collection)
        return collection

    def release(self, keep: Iterable[PersistentCollection] = ()) -> None:
        """Drop every adopted collection except the ``keep`` collections."""
        kept = set(map(id, keep))
        collections, self._collections = self._collections, []
        for collection in collections:
            if id(collection) not in kept:
                collection.drop()
