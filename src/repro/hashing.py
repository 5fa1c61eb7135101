"""The one hash behind shard routing and every hash partitioning.

A record's bucket among ``n`` is ``((key * 2654435761) & (2**32 - 1)) %
n``: Knuth's multiplicative hash, which decorrelates the assignment from
the synthetic key generators of the workloads.  The shard partitioner
(:class:`~repro.shard.partition.HashPartitioner`), the partitioning
and splitting kernels of the joins and the hash aggregation
(:mod:`repro.joins.common`) and a collection's bucket memo
(:meth:`~repro.storage.collection.PersistentCollection.partitioned`) all
bucket records through :func:`bucket_into`, the one loop that computes
the hash in place.  The module imports nothing of the storage or join
layers, so both can build on it.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import ConfigurationError

#: Knuth's multiplicative constant.
HASH_MULTIPLIER = 2654435761
HASH_MASK = (1 << 32) - 1


def partition_of(key: int, num_partitions: int) -> int:
    """Deterministic hash partition of a key."""
    if num_partitions <= 0:
        raise ConfigurationError("number of partitions must be positive")
    return ((key * HASH_MULTIPLIER) & HASH_MASK) % num_partitions


def bucket_into(appends: list, records: Iterable[tuple], key_index: int) -> None:
    """Append each record to ``appends[partition_of(record[key_index], n)]``.

    ``n`` is ``len(appends)``; every bucket receives its records in input
    order.  The hash is computed in place, with no call per record.
    """
    num_partitions, multiplier, mask = len(appends), HASH_MULTIPLIER, HASH_MASK
    for record in records:
        appends[((record[key_index] * multiplier) & mask) % num_partitions](record)


def buckets_of(
    records: Iterable[tuple], num_partitions: int, key_index: int
) -> list[list[tuple]]:
    """``records`` bucketed by hash partition, each bucket in input order."""
    buckets: list[list[tuple]] = [[] for _ in range(num_partitions)]
    bucket_into([bucket.append for bucket in buckets], records, key_index)
    return buckets
