"""Hash partitioning for sharded collections.

A partitioner maps a record to the shard that owns it.  Two records with
equal partition-key values always land on the same shard, which is the
property the sharded planner relies on for partition-wise joins and
shard-local aggregation: when both join inputs route their keys the same
way (:meth:`HashPartitioner.routes_like`), every join match is
shard-local and no data movement is needed.

``key_index`` addresses the attribute the partitioner reads; it is part
of the partitioner's *placement* but not of its *routing*, so two
partitioners over different attributes of different schemas can still be
routing-compatible.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import ConfigurationError
from repro.joins.common import _HASH_MASK, _HASH_MULTIPLIER


class HashPartitioner:
    """Hash partitioning: ``hash(key) % num_shards``.

    The hash is the multiplicative hash the join algorithms use for their
    own partitioning (:func:`~repro.joins.common.partition_of`), which
    decorrelates shard assignment from the structured keys of the
    synthetic workloads.  It is computed in place in each routing loop,
    not called per record.
    """

    def __init__(self, num_shards: int, key_index: int = 0) -> None:
        if num_shards <= 0:
            raise ConfigurationError("number of shards must be positive")
        if key_index < 0:
            raise ConfigurationError("partition key index must be non-negative")
        self.num_shards = num_shards
        self.key_index = key_index

    def split(self, records: Iterable[tuple]) -> list[list[tuple]]:
        """``records`` bucketed by shard, each bucket in input order."""
        num_shards, multiplier, mask = self.num_shards, _HASH_MULTIPLIER, _HASH_MASK
        key_index = self.key_index
        buckets: list[list[tuple]] = [[] for _ in range(num_shards)]
        appends = [bucket.append for bucket in buckets]
        for record in records:
            appends[((record[key_index] * multiplier) & mask) % num_shards](record)
        return buckets

    def routes_like(self, other: "HashPartitioner") -> bool:
        """Whether equal keys land on the same shard under both partitioners.

        Ignores ``key_index``: routing compatibility is about the key ->
        shard mapping, not about where each schema keeps the key.
        """
        return (
            isinstance(other, HashPartitioner) and other.num_shards == self.num_shards
        )

    def with_key_index(self, key_index: int) -> "HashPartitioner":
        """The same routing applied to a different attribute position."""
        return HashPartitioner(self.num_shards, key_index)

    def describe(self) -> str:
        """One-line rendering used by sharded ``explain()``."""
        return f"hash(attr {self.key_index}) % {self.num_shards}"
