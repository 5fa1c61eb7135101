"""Hash kernels shared by the joins and the hash aggregation.

:func:`partition_into` hash-partitions a block stream into per-partition
targets, :func:`split_blocks` splits blocks around one partition for the
iterative hash joins, and :func:`probe_into` probes a hash table with a
block stream; every hash join probes through it.  Each binds its key
extractor and inlines the hash once, and emits exactly the records of the
per-record loops it replaced, in their order.

A key determines its partition, so a probe record of another partition
cannot match a partition's table.  Three rules follow.  A probe side goes
through :func:`split_blocks` only when the split writes a spill; otherwise
the table is probed with the unsplit scan.  An empty table is not probed:
:func:`probe_into` drains the stream instead, so it still charges what it
would have read (a scan's batches, a deferred input's replay, a split's
spill writes).  And a probe record whose build partition is empty is never
written: the partitioned joins split the build side first, and
:func:`partition_into`'s per-partition counts tell them which probe
partitions to drop unwritten and never read.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from repro.exceptions import ConfigurationError
from repro.storage.schema import Schema

#: Knuth's multiplicative constant; decorrelates partition assignment from
#: the synthetic key generators used by the workloads.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = (1 << 32) - 1

#: Input records :func:`partition_into` reads between two bucket sweeps.
PARTITION_SWEEP_RECORDS = 512

#: Records a :func:`partition_into` bucket holds before a sweep hands it over.
PARTITION_FLUSH_RECORDS = 512

#: The most records :func:`partition_into` ever holds in one bucket.
PARTITION_BUCKET_BOUND = PARTITION_FLUSH_RECORDS + PARTITION_SWEEP_RECORDS - 1


def partition_of(key: int, num_partitions: int) -> int:
    """Deterministic hash partition of a join key."""
    if num_partitions <= 0:
        raise ConfigurationError("number of partitions must be positive")
    return ((key * _HASH_MULTIPLIER) & _HASH_MASK) % num_partitions


def partition_into(
    blocks: Iterable[list[tuple]],
    key_fn: Callable[[tuple], int],
    targets: list,
) -> list[int]:
    """Hash-partition a block stream into ``targets``; returns each
    partition's record count.

    A record goes to ``targets[partition_of(key_fn(record), len(targets))]``
    and is dropped when that entry is ``None``; the counts include the
    dropped records.  Every other target gets its records in input order
    through ``extend``.  Records wait in a DRAM bucket per target; every
    :data:`PARTITION_SWEEP_RECORDS` input records each bucket holding at
    least :data:`PARTITION_FLUSH_RECORDS` is handed over (a dropped
    partition's bucket is emptied), and the rest are handed over at the
    end.  So no bucket ever holds more than :data:`PARTITION_BUCKET_BOUND`
    records.
    """
    num_partitions = len(targets)
    buckets: list[list[tuple]] = [[] for _ in targets]
    appends = [bucket.append for bucket in buckets]
    counts = [0] * num_partitions
    records = chain.from_iterable(blocks)
    while True:
        chunk = list(islice(records, PARTITION_SWEEP_RECORDS))
        if not chunk:
            break
        for record in chunk:
            appends[
                ((key_fn(record) * _HASH_MULTIPLIER) & _HASH_MASK) % num_partitions
            ](record)
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


def split_blocks(
    blocks: Iterable[list[tuple]],
    key_fn: Callable[[tuple], int],
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
        for record in block:
            partition = (
                (key_fn(record) * _HASH_MULTIPLIER) & _HASH_MASK
            ) % num_partitions
            if partition == index:
                current.append(record)
            elif partition > index:
                later.append(record)
        if later and spill is not None:
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
