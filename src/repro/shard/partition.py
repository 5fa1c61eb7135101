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

from operator import itemgetter
from typing import Callable, Iterable, Optional

from repro.exceptions import ConfigurationError
from repro.joins.common import _HASH_MASK, _HASH_MULTIPLIER


def multiplicative_hash(key: int) -> int:
    """Knuth's multiplicative hash, shared with the join partitioning."""
    return (key * _HASH_MULTIPLIER) & _HASH_MASK


class HashPartitioner:
    """Hash partitioning: ``hash(key) % num_shards``.

    The default hash is the multiplicative hash the join algorithms use
    for their own partitioning, which decorrelates shard assignment from
    the structured keys of the synthetic workloads.  ``hash_fn`` can be
    overridden (e.g. with a constant) to construct degenerate placements
    in tests.
    """

    def __init__(
        self,
        num_shards: int,
        key_index: int = 0,
        hash_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("number of shards must be positive")
        if key_index < 0:
            raise ConfigurationError("partition key index must be non-negative")
        self.num_shards = num_shards
        self.key_index = key_index
        self.hash_fn = hash_fn if hash_fn is not None else multiplicative_hash

    def shards_of(self, records: Iterable[tuple]) -> list[int]:
        """Shard index of every record, in order: one call per batch."""
        num_shards = self.num_shards
        hashes = map(self.hash_fn, map(itemgetter(self.key_index), records))
        return [value % num_shards for value in hashes]

    def split(self, records: Iterable[tuple]) -> list[list[tuple]]:
        """``records`` bucketed by shard, each bucket in input order."""
        if not isinstance(records, list):
            records = list(records)
        buckets: list[list[tuple]] = [[] for _ in range(self.num_shards)]
        appends = [bucket.append for bucket in buckets]
        for shard, record in zip(self.shards_of(records), records):
            appends[shard](record)
        return buckets

    def routes_like(self, other: "HashPartitioner") -> bool:
        """Whether equal keys land on the same shard under both partitioners.

        Ignores ``key_index``: routing compatibility is about the key ->
        shard mapping, not about where each schema keeps the key.
        """
        return (
            isinstance(other, HashPartitioner)
            and other.num_shards == self.num_shards
            and other.hash_fn is self.hash_fn
        )

    def with_key_index(self, key_index: int) -> "HashPartitioner":
        """The same routing applied to a different attribute position."""
        return HashPartitioner(self.num_shards, key_index, hash_fn=self.hash_fn)

    def describe(self) -> str:
        """One-line rendering used by sharded ``explain()``."""
        return f"hash(attr {self.key_index}) % {self.num_shards}"
