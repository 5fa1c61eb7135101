"""Hash kernels shared by the joins and the hash aggregation.

:func:`partition_into` hash-partitions a block stream into per-partition
targets, :func:`split_blocks` splits blocks around one partition for the
iterative hash joins, and :func:`probe_into` probes a hash table with a
block stream; every hash join probes through it.  Each reads its key at
one attribute position, the partitioning kernels bucket records through
the one hashing loop of :mod:`repro.hashing`, and each emits exactly the
records of the per-record loops it replaced, in their order.

A settled source (MEMORY or MATERIALIZED) read whole is not hashed again
by either partitioning kernel: :func:`partition_source` and
:func:`partition_records` take its buckets from the collection's memo
(:meth:`~repro.storage.collection.PersistentCollection.partitioned`),
charge one :meth:`~repro.storage.collection.PersistentCollection.charge_rescan`
for the read, and write what the streaming kernel would have written.  A
DEFERRED source, a prefix and a pass that writes a spill still stream.

A key determines its partition, so a probe record of another partition
cannot match a partition's table.  Three rules follow.  A probe side goes
through :func:`split_blocks` only when the split writes a spill; otherwise
the table is probed with the unsplit scan.  An empty table is not probed:
:func:`probe_into` drains the stream instead, so it still charges what it
would have read (a scan's batches, a deferred input's replay, a split's
spill writes).  And a probe record whose build partition is empty is never
written: the partitioned joins split the build side first, and the
per-partition counts tell them which probe partitions to drop unwritten
and never read.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from repro import hashing
from repro.exceptions import ConfigurationError
from repro.storage.collection import PersistentCollection
from repro.storage.schema import Schema

#: Input records :func:`partition_into` reads between two bucket sweeps.
PARTITION_SWEEP_RECORDS = 512

#: Records a :func:`partition_into` bucket holds before a sweep hands it over.
PARTITION_FLUSH_RECORDS = 512

#: The most records :func:`partition_into` ever holds in one bucket.
PARTITION_BUCKET_BOUND = PARTITION_FLUSH_RECORDS + PARTITION_SWEEP_RECORDS - 1


def partition_into(
    blocks: Iterable[list[tuple]],
    key_index: int,
    targets: list,
) -> list[int]:
    """Hash-partition a block stream into ``targets``; returns each
    partition's record count.

    A record goes to ``targets[partition_of(record[key_index],
    len(targets))]`` and is dropped when that entry is ``None``; the
    counts include the dropped records.  Every other target gets its
    records in input order through ``extend``.  Records wait in a DRAM
    bucket per target; every :data:`PARTITION_SWEEP_RECORDS` input records
    each bucket holding at least :data:`PARTITION_FLUSH_RECORDS` is handed
    over (a dropped partition's bucket is emptied), and the rest are
    handed over at the end.  So no bucket ever holds more than
    :data:`PARTITION_BUCKET_BOUND` records.
    """
    buckets: list[list[tuple]] = [[] for _ in targets]
    appends = [bucket.append for bucket in buckets]
    counts = [0] * len(targets)
    records = chain.from_iterable(blocks)
    while chunk := list(islice(records, PARTITION_SWEEP_RECORDS)):
        hashing.bucket_into(appends, chunk, key_index)
        for index, target in enumerate(targets):
            bucket = buckets[index]
            if target is None:
                counts[index] += len(bucket)
                bucket.clear()
            elif len(bucket) >= PARTITION_FLUSH_RECORDS:
                counts[index] += len(bucket)
                target.extend(bucket)
                buckets[index] = []
                appends[index] = buckets[index].append
    for index, target in enumerate(targets):
        bucket = buckets[index]
        counts[index] += len(bucket)
        if bucket and target is not None:
            target.extend(bucket)
    return counts


def partition_source(
    source: PersistentCollection,
    key_index: int,
    targets: list,
    stop: int | None = None,
) -> list[int]:
    """Hash-partition ``source``'s first ``stop`` records into ``targets``.

    Writes and returns what :func:`partition_into` over
    ``source.scan_blocks(stop=stop)`` does.  A settled source read whole
    -- ``stop`` at or past its end, as HybJ's boundary at y = 1 is -- is
    charged one :meth:`charge_rescan`, the drained scan's counters, and
    each live target is extended with its memoized bucket in one call,
    which charges what any cut of the same stream does; the counts are the
    buckets' lengths, a dropped partition's included.
    """
    if source.is_deferred or (stop is not None and stop < len(source)):
        return partition_into(source.scan_blocks(stop=stop), key_index, targets)
    source.charge_rescan()
    buckets = source.partitioned(len(targets), key_index)
    for target, bucket in zip(targets, buckets):
        if target is not None:
            target.extend(bucket)
    return [len(bucket) for bucket in buckets]


def partition_records(
    source: PersistentCollection,
    key_index: int,
    num_partitions: int,
    index: int,
    spill=None,
) -> Iterable[tuple]:
    """The records of hash partition ``index`` of a scan of ``source``.

    :func:`split_blocks` over ``source.scan_blocks()``, flattened.  A pass
    that writes no spill over a settled source is charged one
    :meth:`charge_rescan` and takes the partition's memoized bucket.
    """
    if spill is None and not source.is_deferred:
        source.charge_rescan()
        return source.partitioned(num_partitions, key_index)[index]
    return chain.from_iterable(
        split_blocks(source.scan_blocks(), key_index, num_partitions, index, spill)
    )


def split_blocks(
    blocks: Iterable[list[tuple]],
    key_index: int,
    num_partitions: int,
    index: int,
    spill=None,
) -> Iterator[list[tuple]]:
    """Split each block three ways around hash partition ``index``.

    Yields, per block, its records of partition ``index``.  Records of a
    later partition go to ``spill.extend`` when a spill is given and are
    dropped otherwise; records of an earlier partition are dropped.  Both
    outputs keep input order, so the spill is the next pass's input in the
    order a per-record loop would have written it.
    """
    for block in blocks:
        current: list[tuple] = []
        later: list[tuple] = []
        skip = [].append
        rest = (skip if spill is None else later.append,) * (num_partitions - index - 1)
        hashing.bucket_into([skip] * index + [current.append, *rest], block, key_index)
        if later:
            spill.extend(later)
        yield current


def build_hash_table(
    records: Iterable[tuple], key_fn: Callable[[tuple], int]
) -> dict[int, list[tuple]]:
    """In-memory hash table from join key to the records carrying it."""
    table: dict[int, list[tuple]] = defaultdict(list)
    for record in records:
        table[key_fn(record)].append(record)
    return dict(table)


def probe_into(
    output,
    table: dict[int, list[tuple]],
    blocks: Iterable[list[tuple]],
    key_fn: Callable[[tuple], int],
) -> None:
    """Extend ``output`` with the ``match + record`` pairs of every block.

    Ordered by probe record, then by the matches' build-insertion order;
    one ``extend`` per block.  An empty table matches nothing, so
    ``blocks`` is drained unprobed and nothing is written.
    """
    if not table:
        deque(blocks, maxlen=0)
        return
    get = table.get
    extend = output.extend
    for block in blocks:
        extend(
            [match + record for record in block for match in get(key_fn(record), ())]
        )


def joined_schema(left: Schema, right: Schema) -> Schema:
    """Schema of the concatenated join output record."""
    if left.field_bytes != right.field_bytes:
        raise ConfigurationError(
            "join inputs must share a field width to concatenate records"
        )
    return Schema(
        num_fields=left.num_fields + right.num_fields,
        field_bytes=left.field_bytes,
        key_index=left.key_index,
    )
