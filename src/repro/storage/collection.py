"""Persistent collections.

A persistent collection is the unit the algorithms and the runtime operate
on: a named, append-only sequence of records hosted either in DRAM or on
the persistent device through one of the Section 3.2 backends.

Collections can be in one of three states, mirroring the paper's
``cstatus_t`` (Listing 1):

``MEMORY``
    Purely in-DRAM; accesses are free as far as the device is concerned.

``MATERIALIZED``
    Physically present on the persistent device; appends charge writes and
    scans charge reads through the collection's backend.

``DEFERRED``
    Declared but not physically present.  Scanning a deferred collection
    delegates to its operator context, which reconstructs the records by
    replaying the control-flow graph from the oldest materialized ancestor
    (Section 3.1).

Two I/O shapes are offered on top of these states.  The per-record API
(:meth:`PersistentCollection.append` / :meth:`PersistentCollection.scan`)
charges the backend one block at a time as records stream through.  The
batched API (:meth:`PersistentCollection.extend` /
:meth:`PersistentCollection.scan_blocks`, plus the :class:`AppendBuffer`
helper for incremental producers) groups whole block batches into single
vectorized backend calls.  Both shapes are cost-equivalent -- identical
device counters for the same record traffic -- the batched one just does
O(1) Python work per block batch instead of O(records); the
:func:`io_batching` switch can force the per-record path for equivalence
testing.  A ``scan_blocks`` list is a *charge batch* of whole I/O blocks:
the unit of Python work and of one backend charge, not modelled DRAM.
"""

from __future__ import annotations

import enum
import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

from repro.exceptions import CollectionStateError, ConfigurationError
from repro.pmem.backends.base import PersistenceBackend
from repro.storage.schema import Schema, WISCONSIN_SCHEMA

_anonymous_counter = itertools.count()

#: Whole I/O blocks per ``scan_blocks`` list, charged in one backend call.
DEFAULT_CHARGE_BATCH_BLOCKS = 64

#: Records an :class:`AppendBuffer` accumulates before flushing.
DEFAULT_APPEND_BUFFER_RECORDS = 512

_io_batching_enabled = True


def io_batching_enabled() -> bool:
    """Whether the batched APIs use vectorized backend charging."""
    return _io_batching_enabled


def set_io_batching(enabled: bool) -> bool:
    """Toggle batched charging globally; returns the previous setting.

    With batching disabled, :meth:`PersistentCollection.extend` degrades to
    per-record :meth:`PersistentCollection.append` calls and
    :meth:`PersistentCollection.scan_blocks` yields and charges one block
    per list -- the exact charge sequence of the per-record APIs.  Used by
    the equivalence tests and benchmarks to compare both paths.
    """
    global _io_batching_enabled
    previous = _io_batching_enabled
    _io_batching_enabled = bool(enabled)
    return previous


@contextmanager
def io_batching(enabled: bool):
    """Context manager scoping :func:`set_io_batching` to a block."""
    previous = set_io_batching(enabled)
    try:
        yield
    finally:
        set_io_batching(previous)


def _next_anonymous_name() -> str:
    return f"collection-{next(_anonymous_counter)}"


class CollectionStatus(enum.Enum):
    """Lifecycle state of a persistent collection."""

    MEMORY = "memory"
    MATERIALIZED = "materialized"
    DEFERRED = "deferred"


class PersistentCollection:
    """Append-only record collection over a persistence backend.

    Record payloads are kept as Python tuples (the simulator prices the
    I/O, it does not store bytes), while every append and scan of a
    materialized collection is charged to the backend in block-sized
    chunks, which is how the persistence layer of Figure 3 amortizes
    cacheline I/O.

    Args:
        name: unique collection identifier; auto-generated when omitted.
        backend: persistence backend for MATERIALIZED collections.  May be
            ``None`` for purely in-memory collections.
        schema: record schema; defaults to the paper's Wisconsin schema.
        status: initial lifecycle state.
        context: optional operator context (duck-typed: needs ``assess``,
            ``produce`` and ``reconstruct``) used for DEFERRED collections.
        block_bytes: I/O granularity between DRAM and the device; defaults
            to the backend device's block size.
    """

    def __init__(
        self,
        name: str | None = None,
        backend: Optional[PersistenceBackend] = None,
        schema: Schema = WISCONSIN_SCHEMA,
        status: CollectionStatus = CollectionStatus.MATERIALIZED,
        context=None,
        block_bytes: int | None = None,
    ) -> None:
        self.name = name or _next_anonymous_name()
        self.schema = schema
        self.backend = backend
        self.context = context
        self._status = status
        self._records: list[tuple] = []
        self._sealed = False
        if block_bytes is None:
            if backend is not None:
                block_bytes = backend.device.geometry.block_bytes
            else:
                block_bytes = 1024
        self.block_bytes = block_bytes
        if self.block_bytes <= 0:
            raise ConfigurationError("block_bytes must be positive")
        if status is CollectionStatus.MATERIALIZED:
            if backend is None:
                raise ConfigurationError(
                    f"collection {self.name!r} is MATERIALIZED but has no backend"
                )
            backend.ensure_store(self.name)
        #: bytes appended since the last block flush to the backend
        self._pending_bytes = 0

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

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    def mark_materialized(self) -> None:
        """Promote a deferred collection so that it can receive records."""
        if self._status is CollectionStatus.MATERIALIZED:
            return
        if self.backend is None:
            raise CollectionStateError(
                f"cannot materialize {self.name!r}: no backend attached"
            )
        self.backend.ensure_store(self.name)
        self._status = CollectionStatus.MATERIALIZED

    def open(self) -> None:
        """Assess-and-produce protocol of the paper's ``Collection::open``.

        Deferred collections ask their operator context whether they should
        be materialized; if the verdict (or the prior state) is
        MATERIALIZED but the records are not yet present, the context
        produces them by replaying the control-flow graph.
        """
        if self._status is CollectionStatus.DEFERRED and self.context is not None:
            self.context.assess(self.name)
        if self._status is CollectionStatus.MATERIALIZED and self.context is not None:
            if not self._records and self.context.is_pending(self.name):
                self.context.produce(self.name)

    # ------------------------------------------------------------------ #
    # Writing.
    # ------------------------------------------------------------------ #
    def append(self, record: tuple) -> None:
        """Append one record, charging device writes when materialized."""
        if self._sealed:
            raise CollectionStateError(f"collection {self.name!r} is sealed")
        if self._status is CollectionStatus.DEFERRED:
            raise CollectionStateError(
                f"cannot append to deferred collection {self.name!r}; "
                "materialize it first"
            )
        self._records.append(record)
        if self._status is CollectionStatus.MATERIALIZED:
            self._pending_bytes += self.schema.record_bytes
            while self._pending_bytes >= self.block_bytes:
                self.backend.append(self.name, self.block_bytes)
                self._pending_bytes -= self.block_bytes

    def extend(self, records: Iterable[tuple]) -> None:
        """Append many records, charging whole block batches in bulk.

        Cost-equivalent to appending the records one by one -- the same
        number of full blocks reaches the backend and the same partial
        block stays pending -- but the backend (and through it the device)
        is charged once per batch instead of once per block, so the Python
        overhead no longer scales with the record count.
        """
        if not _io_batching_enabled:
            for record in records:
                self.append(record)
            return
        if not isinstance(records, list):
            records = list(records)
        if not records:
            # Matches the per-record path: zero appends touch no state, so
            # an empty extend is a no-op even on sealed collections.
            return
        if self._sealed:
            raise CollectionStateError(f"collection {self.name!r} is sealed")
        if self._status is CollectionStatus.DEFERRED:
            raise CollectionStateError(
                f"cannot append to deferred collection {self.name!r}; "
                "materialize it first"
            )
        self._records.extend(records)
        if self._status is CollectionStatus.MATERIALIZED:
            total = self._pending_bytes + len(records) * self.schema.record_bytes
            full_blocks, self._pending_bytes = divmod(total, self.block_bytes)
            if full_blocks:
                self.backend.append_bulk(self.name, self.block_bytes, full_blocks)

    def flush(self) -> None:
        """Flush any partially filled block to the backend."""
        if self._status is CollectionStatus.MATERIALIZED and self._pending_bytes:
            self.backend.append(self.name, self._pending_bytes)
            self._pending_bytes = 0

    def seal(self) -> None:
        """Flush and forbid further appends (a completed run or output)."""
        self.flush()
        self._sealed = True

    def clear(self) -> None:
        """Discard all records; materialized stores are truncated."""
        self._records = []
        self._pending_bytes = 0
        self._sealed = False
        if self._status is CollectionStatus.MATERIALIZED and self.backend is not None:
            if self.backend.has_store(self.name):
                self.backend.truncate(self.name)

    def drop(self) -> None:
        """Clear the collection and remove its backend store entirely."""
        self._records = []
        self._pending_bytes = 0
        self._sealed = False
        if self.backend is not None and self.backend.has_store(self.name):
            self.backend.drop_store(self.name)

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    def scan(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """Yield records in insertion order, charging reads as they stream.

        ``start``/``stop`` allow a contiguous slice to be read without
        paying for the skipped prefix -- collections are directly
        addressable, so skipping is a pointer adjustment, exactly the
        assumption the paper's segment-processing cost models make.
        """
        if self._status is CollectionStatus.DEFERRED:
            if self.context is None:
                raise CollectionStateError(
                    f"deferred collection {self.name!r} has no operator context"
                )
            yield from self.context.reconstruct(self.name, start=start, stop=stop)
            return
        records = self._records[start:stop]
        if self._status is CollectionStatus.MEMORY or self.backend is None:
            yield from records
            return
        pending_read = 0
        record_bytes = self.schema.record_bytes
        for record in records:
            pending_read += record_bytes
            if pending_read >= self.block_bytes:
                self.backend.read(self.name, pending_read)
                pending_read = 0
            yield record
        if pending_read:
            self.backend.read(self.name, pending_read)

    def scan_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[list[tuple]]:
        """Yield insertion-order record batches, charging reads in bulk.

        Each list is one *charge batch*: up to
        :data:`DEFAULT_CHARGE_BATCH_BLOCKS` whole I/O blocks (an I/O block
        is the smallest record count whose payload reaches
        ``block_bytes``); a partial final block is a list of its own.  A
        materialized collection charges each list in one backend call just
        before yielding it, so a full scan costs exactly what :meth:`scan`
        costs and an abandoned scan has paid for exactly the lists it
        handed out.  Under ``io_batching(False)`` every list is one block.
        A deferred collection also yields one block per list: its replay
        charges source reads as it derives, so a larger list would derive
        (and charge) further ahead of a consumer that stops early.  No
        operator sizes a DRAM structure from a list's length.
        """
        record_bytes = self.schema.record_bytes
        per_block = max(1, -(-self.block_bytes // record_bytes))
        if self._status is CollectionStatus.DEFERRED:
            # The operator context prices the replay; just batch its stream.
            stream = self.scan(start=start, stop=stop)
            while block := list(itertools.islice(stream, per_block)):
                yield block
            return
        records = self._records
        start, stop, _ = slice(start, stop).indices(len(records))
        charged = self._status is CollectionStatus.MATERIALIZED
        batch_blocks = DEFAULT_CHARGE_BATCH_BLOCKS if _io_batching_enabled else 1
        step = per_block * batch_blocks
        full_stop = start + max(0, stop - start) // per_block * per_block
        for position in range(start, full_stop, step):
            batch = records[position:min(position + step, full_stop)]
            if charged:
                self.backend.read_bulk(
                    self.name, per_block * record_bytes, len(batch) // per_block
                )
            yield batch
        if full_stop < stop:
            if charged:
                self.backend.read(self.name, (stop - full_stop) * record_bytes)
            yield records[full_stop:stop]

    def scan_blocks_flat(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple]:
        """A per-record stream with :meth:`scan_blocks` batched charging.

        Drop-in for :meth:`scan` wherever the stream is fully consumed
        (merges, hash-table builds); reads are priced per charge batch
        instead of per record.  The batches are flattened in C.
        """
        return itertools.chain.from_iterable(
            self.scan_blocks(start=start, stop=stop)
        )

    def __iter__(self) -> Iterator[tuple]:
        return self.scan()

    def __len__(self) -> int:
        if self._status is CollectionStatus.DEFERRED:
            if self.context is None:
                raise CollectionStateError(
                    f"deferred collection {self.name!r} has no operator context"
                )
            return self.context.estimated_cardinality(self.name)
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


class AppendBuffer:
    """Write-side batching for producers that emit one record at a time.

    Algorithm hot loops (run generation, partitioning, probe output) often
    produce records individually; buffering them and flushing through
    :meth:`PersistentCollection.extend` keeps their charge totals identical
    to per-record appends while amortizing the Python call overhead.  The
    buffer must be flushed (or the collection sealed via :meth:`seal`)
    before the records are visible in the collection.
    """

    __slots__ = ("collection", "batch_records", "_buffer")

    def __init__(
        self,
        collection: PersistentCollection,
        batch_records: int = DEFAULT_APPEND_BUFFER_RECORDS,
    ) -> None:
        if batch_records < 1:
            raise ConfigurationError("batch_records must be positive")
        self.collection = collection
        self.batch_records = batch_records
        self._buffer: list[tuple] = []

    def append(self, record: tuple) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= self.batch_records:
            self.flush()

    def extend(self, records: Iterable[tuple]) -> None:
        self._buffer.extend(records)
        if len(self._buffer) >= self.batch_records:
            self.flush()

    def flush(self) -> None:
        """Move the buffered records into the collection."""
        if self._buffer:
            self.collection.extend(self._buffer)
            self._buffer = []

    def seal(self) -> None:
        """Flush the buffer and seal the underlying collection."""
        self.flush()
        self.collection.seal()

    def __len__(self) -> int:
        return len(self._buffer)
