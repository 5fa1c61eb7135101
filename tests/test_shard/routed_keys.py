"""Keys picked by the shard :class:`~repro.shard.HashPartitioner` routes them to.

Skewed placements (every key on one shard, some shards empty) are built
from keys chosen for where the partitioner's hash sends them, so the
tests exercise the one hash every sharded collection routes with.
"""

from itertools import count, islice

from repro.joins.common import partition_of


def keys_routed_to(shards, num_shards, how_many, keys=None):
    """The first ``how_many`` of ``keys`` (0, 1, 2, ... by default) routed
    to one of ``shards`` by a ``num_shards``-way partitioner."""
    keys = count() if keys is None else keys
    return list(
        islice(
            (key for key in keys if partition_of(key, num_shards) in shards),
            how_many,
        )
    )
