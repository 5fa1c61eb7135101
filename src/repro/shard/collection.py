"""Collections partitioned across multiple simulated devices.

A :class:`ShardSet` is the hardware side of sharded execution: N
independent :class:`~repro.pmem.device.PersistentMemoryDevice` instances
(each with its own latency model, geometry and counters), each
wrapped in its own persistence backend.  Every fragment only ever
touches its own shard's device, so its I/O is that device's snapshot
delta; the session runs queries on one thread, so the per-device
counters need no synchronization.

A :class:`ShardedCollection` hash-partitions one logical
collection across the shard set: shard ``i`` of the collection is a plain
:class:`~repro.storage.collection.PersistentCollection` on backend ``i``,
so every existing algorithm runs unchanged against a single shard.
Collections that share a :class:`ShardSet` are co-located shard-by-shard,
which is what makes partition-wise joins between them purely shard-local.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.exceptions import ConfigurationError
from repro.pmem.backends import make_backend
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.device import (
    DEFAULT_BLOCK_BYTES,
    DeviceGeometry,
    PersistentMemoryDevice,
)
from repro.pmem.latency import (
    DEFAULT_READ_LATENCY_NS,
    DEFAULT_WRITE_LATENCY_NS,
    LatencyModel,
)
from repro.shard.partition import HashPartitioner
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


class ShardSet:
    """N simulated devices, each behind its own persistence backend.

    All sharded collections participating in one query must live on the
    same shard set; the planner checks this.  A session runs every query
    on its one serial worker thread, so each device is only ever accessed
    from a single thread at a time.
    """

    def __init__(self, backends: list[PersistenceBackend]) -> None:
        if not backends:
            raise ConfigurationError("a shard set needs at least one backend")
        self.backends = list(backends)

    @classmethod
    def create(
        cls,
        num_shards: int,
        backend_name: str = "blocked_memory",
        read_ns: float = DEFAULT_READ_LATENCY_NS,
        write_ns: float = DEFAULT_WRITE_LATENCY_NS,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        **backend_kwargs,
    ) -> "ShardSet":
        """Build ``num_shards`` identical devices with the named backend.

        The devices have the paper's latencies and block size unless told
        otherwise; ``backend_kwargs`` go to
        :func:`~repro.pmem.backends.make_backend`.
        """
        if num_shards <= 0:
            raise ConfigurationError("number of shards must be positive")
        backends = []
        for _ in range(num_shards):
            device = PersistentMemoryDevice(
                latency=LatencyModel(read_ns=read_ns, write_ns=write_ns),
                geometry=DeviceGeometry(block_bytes=block_bytes),
            )
            backends.append(make_backend(backend_name, device, **backend_kwargs))
        return cls(backends)

    @property
    def num_shards(self) -> int:
        return len(self.backends)

    @property
    def devices(self) -> list[PersistentMemoryDevice]:
        return [backend.device for backend in self.backends]

    @property
    def backend_name(self) -> str:
        return self.backends[0].name

    @property
    def write_read_ratio(self) -> float:
        return self.backends[0].device.write_read_ratio

    def positions_of(self, other: "ShardSet") -> list[int]:
        """Where each of ``other``'s backends sits in this set, in order.

        ``other`` is a plan's placement: this set itself, or a one-shard
        subset holding a plain collection.  A backend outside this set
        raises :class:`ConfigurationError`.
        """
        if other is self:
            return list(range(len(self.backends)))
        positions = {
            id(backend): index for index, backend in enumerate(self.backends)
        }
        try:
            return [positions[id(backend)] for backend in other.backends]
        except KeyError:
            raise ConfigurationError(
                "the plan was built for a different shard set than this "
                "one; its fragments and I/O accounting would land on the "
                "wrong devices"
            ) from None

    def __len__(self) -> int:
        return len(self.backends)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardSet(shards={self.num_shards}, backend={self.backend_name!r})"


class ShardedCollection:
    """One logical collection partitioned across a :class:`ShardSet`.

    Records are routed by the collection's :class:`HashPartitioner` (on
    the schema key by default) and each shard is an ordinary
    :class:`PersistentCollection` named ``{name}/shard{i}`` on backend
    ``i``.  Writes and scans charge the owning shard's device exactly as
    an unsharded collection would charge its single device, so summed
    shard counters are directly comparable to a single-device run.
    """

    #: Marks sharded collections for duck-typed dispatch in the query layer.
    is_sharded = True

    def __init__(
        self,
        name: str,
        shard_set: ShardSet,
        partitioner: Optional[HashPartitioner] = None,
        schema: Schema = WISCONSIN_SCHEMA,
        status: CollectionStatus = CollectionStatus.MATERIALIZED,
    ) -> None:
        if partitioner is None:
            partitioner = HashPartitioner(
                shard_set.num_shards, key_index=schema.key_index
            )
        if partitioner.num_shards != shard_set.num_shards:
            raise ConfigurationError(
                f"partitioner routes {partitioner.num_shards} shards but the "
                f"shard set has {shard_set.num_shards}"
            )
        if not 0 <= partitioner.key_index < schema.num_fields:
            raise ConfigurationError(
                f"partition attribute {partitioner.key_index} outside the "
                f"schema's {schema.num_fields} attributes"
            )
        self.name = name
        self.shard_set = shard_set
        self.partitioner = partitioner
        self.schema = schema
        self.shards = [
            PersistentCollection(
                name=f"{name}/shard{index}",
                backend=backend,
                schema=schema,
                status=status,
            )
            for index, backend in enumerate(shard_set.backends)
        ]

    # ------------------------------------------------------------------ #
    # Writing.
    # ------------------------------------------------------------------ #
    def extend(self, records: Iterable[tuple]) -> None:
        """Partition and bulk-append ``records`` shard by shard."""
        buckets = self.partitioner.split(records)
        for shard, bucket in zip(self.shards, buckets):
            shard.extend(bucket)

    def seal(self) -> None:
        for shard in self.shards:
            shard.seal()

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    # ------------------------------------------------------------------ #
    # Reading / introspection.
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> PersistentCollection:
        return self.shards[index]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def nbytes(self) -> int:
        return sum(shard.nbytes for shard in self.shards)

    @property
    def records(self) -> list[tuple]:
        """All records in shard order (no-charge testing helper)."""
        combined: list[tuple] = []
        for shard in self.shards:
            combined.extend(shard.records)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedCollection(name={self.name!r}, shards={self.num_shards}, "
            f"records={len(self)})"
        )
