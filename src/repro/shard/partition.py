"""Partitioning functions for sharded collections.

A partitioner maps a record to the shard that owns it.  Two records with
equal partition-key values always land on the same shard, which is the
property the sharded planner relies on for partition-wise joins and
shard-local aggregation: when both join inputs route their keys the same
way (:meth:`Partitioner.routes_like`), every join match is shard-local
and no data movement is needed.

``key_index`` addresses the attribute the partitioner reads; it is part
of the partitioner's *placement* but not of its *routing*, so two
partitioners over different attributes of different schemas can still be
routing-compatible.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.joins.common import _HASH_MASK, _HASH_MULTIPLIER


def multiplicative_hash(key: int) -> int:
    """Knuth's multiplicative hash, shared with the join partitioning."""
    return (key * _HASH_MULTIPLIER) & _HASH_MASK


class Partitioner:
    """Base class: maps partition-key values to shard indices."""

    def __init__(self, num_shards: int, key_index: int = 0) -> None:
        if num_shards <= 0:
            raise ConfigurationError("number of shards must be positive")
        if key_index < 0:
            raise ConfigurationError("partition key index must be non-negative")
        self.num_shards = num_shards
        self.key_index = key_index

    def shard_of_key(self, key: int) -> int:
        """Shard index owning ``key``; must be deterministic."""
        raise NotImplementedError

    def shard_of(self, record: tuple) -> int:
        """Shard index owning ``record``."""
        return self.shard_of_key(record[self.key_index])

    def shards_of(self, records: Iterable[tuple]) -> list[int]:
        """Shard index of every record, in order: one call per batch."""
        keys = map(itemgetter(self.key_index), records)
        return list(map(self.shard_of_key, keys))

    def split(self, records: Iterable[tuple]) -> list[list[tuple]]:
        """``records`` bucketed by shard, each bucket in input order."""
        if not isinstance(records, list):
            records = list(records)
        buckets: list[list[tuple]] = [[] for _ in range(self.num_shards)]
        appends = [bucket.append for bucket in buckets]
        for shard, record in zip(self.shards_of(records), records):
            appends[shard](record)
        return buckets

    def routes_like(self, other: "Partitioner") -> bool:
        """Whether equal keys land on the same shard under both partitioners.

        Ignores ``key_index``: routing compatibility is about the key ->
        shard mapping, not about where each schema keeps the key.
        """
        raise NotImplementedError

    def with_key_index(self, key_index: int) -> "Partitioner":
        """The same routing applied to a different attribute position."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line rendering used by sharded ``explain()``."""
        return f"{type(self).__name__}(attr {self.key_index})"


class HashPartitioner(Partitioner):
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
        super().__init__(num_shards, key_index)
        self.hash_fn = hash_fn if hash_fn is not None else multiplicative_hash

    def shard_of_key(self, key: int) -> int:
        return self.hash_fn(key) % self.num_shards

    def shards_of(self, records: Iterable[tuple]) -> list[int]:
        num_shards = self.num_shards
        hashes = map(self.hash_fn, map(itemgetter(self.key_index), records))
        return [value % num_shards for value in hashes]

    def routes_like(self, other: Partitioner) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and other.num_shards == self.num_shards
            and other.hash_fn is self.hash_fn
        )

    def with_key_index(self, key_index: int) -> "HashPartitioner":
        return HashPartitioner(self.num_shards, key_index, hash_fn=self.hash_fn)

    def describe(self) -> str:
        return f"hash(attr {self.key_index}) % {self.num_shards}"


class RangePartitioner(Partitioner):
    """Range partitioning on sorted split points.

    ``boundaries`` holds ``num_shards - 1`` ascending split keys; shard
    ``i`` owns keys in ``[boundaries[i-1], boundaries[i])`` with the first
    and last shards open-ended.
    """

    def __init__(
        self, boundaries: Sequence[int], key_index: int = 0
    ) -> None:
        boundaries = tuple(boundaries)
        if any(b >= a for b, a in zip(boundaries, boundaries[1:])):
            raise ConfigurationError("range boundaries must be strictly ascending")
        super().__init__(len(boundaries) + 1, key_index)
        self.boundaries = boundaries

    def shard_of_key(self, key: int) -> int:
        return bisect.bisect_right(self.boundaries, key)

    def routes_like(self, other: Partitioner) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and other.boundaries == self.boundaries
        )

    def with_key_index(self, key_index: int) -> "RangePartitioner":
        return RangePartitioner(self.boundaries, key_index)

    def describe(self) -> str:
        return f"range(attr {self.key_index}; {len(self.boundaries)} splits)"
