"""Builders for the sort and join microbenchmark inputs.

The paper's evaluation sorts a ten-million-record relation and joins a
one-million-record relation with a ten-million-record one, with every
left record matching ten right records.  The builders below reproduce the
same *structure* (schemas, key permutation, cardinality ratio and fanout)
at configurable sizes, since the absolute cardinalities are out of reach
for a pure-Python run.

One builder serves one device and many: every builder takes a *target*,
as a :class:`~repro.session.Session` does.  A
:class:`~repro.pmem.backends.base.PersistenceBackend` target gets a sealed
:class:`~repro.storage.collection.PersistentCollection`; a
:class:`~repro.shard.collection.ShardSet` target gets a sealed
:class:`~repro.shard.collection.ShardedCollection`, routed by its
partitioner (on the schema key by default).  The records are the same on
every target, so sharded runs are directly comparable to single-device
ones.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.exceptions import ConfigurationError
from repro.shard.collection import ShardedCollection, ShardSet
from repro.shard.partition import HashPartitioner
from repro.storage.collection import PersistentCollection
from repro.storage.schema import Schema, WISCONSIN_SCHEMA
from repro.workloads.wisconsin import wisconsin_permutation


def load_collection(
    records: Iterable[tuple],
    target,
    name: str,
    schema: Schema = WISCONSIN_SCHEMA,
    partitioner: Optional[HashPartitioner] = None,
):
    """A sealed collection of ``records`` on ``target``.

    ``target`` is a backend (a :class:`PersistentCollection` named
    ``name``) or a :class:`ShardSet` (a :class:`ShardedCollection` routed
    by ``partitioner``); a partitioner with a backend target raises
    :class:`ConfigurationError`.

    Loading charges device writes like any other materialization; callers
    that want to exclude the load from their measurements (the paper
    factors data loading out of its timings) should snapshot the device
    after loading, which is what the benchmark harness does.
    """
    if isinstance(target, ShardSet):
        collection = ShardedCollection(
            name, target, partitioner=partitioner, schema=schema
        )
    elif partitioner is not None:
        raise ConfigurationError(
            f"collection {name!r} targets one backend: a partitioner needs "
            "a ShardSet target"
        )
    else:
        collection = PersistentCollection(name=name, backend=target, schema=schema)
    collection.extend(records)
    collection.seal()
    return collection


def make_sort_input(
    num_records: int,
    target,
    schema: Schema = WISCONSIN_SCHEMA,
    name: str = "T",
    seed: int = 1,
):
    """The sort microbenchmark input: ``num_records`` Wisconsin records."""
    if num_records < 0:
        raise ConfigurationError("number of records must be non-negative")
    records = (
        (schema.make_record(key) for key in wisconsin_permutation(num_records, seed))
        if num_records
        else ()
    )
    return load_collection(records, target, name, schema)


def make_join_inputs(
    left_records: int,
    right_records: int,
    target,
    schema: Schema = WISCONSIN_SCHEMA,
    left_name: str = "T",
    right_name: str = "V",
    seed: int = 1,
    right_partitioner: Optional[HashPartitioner] = None,
):
    """The join microbenchmark inputs.

    The left input carries ``left_records`` distinct keys in Wisconsin
    permutation order.  The right input carries ``right_records`` records
    whose keys cycle through the left key domain, so every left record
    matches exactly ``right_records / left_records`` right records -- the
    1:10 fanout of the paper when the cardinality ratio is 1:10.

    On a :class:`ShardSet` both sides hash on the join key by default, so
    every join match is shard-local; a ``right_partitioner`` on another
    attribute makes the sharded planner insert a repartition exchange.
    """
    if left_records <= 0 or right_records <= 0:
        raise ConfigurationError("join inputs must be non-empty")
    left = load_collection(
        (
            schema.make_record(key)
            for key in wisconsin_permutation(left_records, seed=seed)
        ),
        target,
        left_name,
        schema,
    )
    right = load_collection(
        (
            schema.make_record(key % left_records)
            for key in wisconsin_permutation(right_records, seed=seed + 1)
        ),
        target,
        right_name,
        schema,
        right_partitioner,
    )
    return left, right
