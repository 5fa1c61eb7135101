"""Query execution over one or many devices: the one execution path.

``repro.shard`` runs every query, scaling the single-fragment query
layer out to N simulated persistent-memory devices (a single device is
the one-shard case):

* :class:`~repro.shard.collection.ShardSet` -- N independent devices,
  each behind its own persistence backend;
* :class:`~repro.shard.collection.ShardedCollection` -- one logical
  collection hash-partitioned across a shard set
  (:mod:`repro.shard.partition`), shard ``i`` being an ordinary
  :class:`~repro.storage.collection.PersistentCollection` on device ``i``;
* :class:`~repro.shard.planner.ShardedPlanner` -- decomposes a logical
  query into per-shard plan fragments (partition-wise joins and
  shard-local aggregation when the partitioning keys line up, priced
  repartition exchanges otherwise), each fragment planned by the
  Section 2 cost models under a ``1/N`` share of the DRAM budget;
* :class:`~repro.shard.executor.ShardedQueryExecutor` -- runs each
  step's fragments one after another on the calling thread under
  parent/child bufferpool accounting and returns a
  :class:`~repro.shard.executor.QueryResult` with per-shard estimated
  vs. actual I/O plus the critical-path (max-over-shards) cost.
"""

from repro.shard.collection import ShardedCollection, ShardSet
from repro.shard.executor import QueryResult, ShardedQueryExecutor
from repro.shard.partition import HashPartitioner
from repro.shard.planner import (
    ExchangeStep,
    FragmentStep,
    ShardedPhysicalPlan,
    ShardedPlanner,
    find_sharded_collections,
)

__all__ = [
    "ShardSet",
    "ShardedCollection",
    "HashPartitioner",
    "ShardedPlanner",
    "ShardedPhysicalPlan",
    "FragmentStep",
    "ExchangeStep",
    "find_sharded_collections",
    "ShardedQueryExecutor",
    "QueryResult",
]
