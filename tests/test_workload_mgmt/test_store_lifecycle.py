"""Every query drops the stores it created, on success and on failure.

One long-lived :class:`~repro.Session` runs the same
filter -> join -> group-by -> order-by query five times, on one device and
on a two-shard set, under each boundary policy, then one query that fails
inside an operator.  After each query the backends hold exactly the
stores they held after the load, and the devices exactly the bytes: the
query's sinks, runtime-context materializations, exchange destinations
and every algorithm's runs, partitions and spills are gone.  At 3k x 6k
under a 16 KiB budget the operators write dozens of scratch stores per
query.  With the garbage collector off, no finished query's operator
context or derived collection stays alive either: dropping a collection
breaks its cycle with its context.
"""

from __future__ import annotations

import gc

import pytest

from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.query import BOUNDARY_POLICIES, Query
from repro.runtime.context import OperatorContext
from repro.session import Session
from repro.shard import ShardSet
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.workloads.generator import make_join_inputs

LEFT, RIGHT = 3_000, 6_000
BUDGET = MemoryBudget(16 * 1024)
#: The join key the failing query's predicate raises on.
POISON_KEY = 1


class OperatorFailure(RuntimeError):
    pass


def keep_unless_poisoned(record):
    if record[0] == POISON_KEY:
        raise OperatorFailure("predicate failed")
    return True


def build_query(left, right, fail=False):
    joined = (
        Query.scan(left)
        .filter(lambda record: record[0] % 3 != 0, selectivity=0.67)
        .join(Query.scan(right))
    )
    if fail:
        # Evaluated on the join's output: under ``defer`` inside the
        # aggregation's run, otherwise while its edge settles.
        joined = joined.filter(keep_unless_poisoned, selectivity=1.0)
    return joined.group_by(1, {"count": 0, "sum": 1}).order_by()


def load(shards):
    if shards == 1:
        backend = make_backend("blocked_memory", PersistentMemoryDevice())
        return backend, [backend], make_join_inputs(LEFT, RIGHT, backend)
    shard_set = ShardSet.create(shards)
    inputs = make_join_inputs(LEFT, RIGHT, shard_set)
    return shard_set, shard_set.backends, inputs


def footprint(backends):
    return [
        (backend.stores(), backend.device.allocated_bytes) for backend in backends
    ]


@pytest.mark.parametrize("shards", [1, 2], ids=["one-device", "two-shards"])
@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
def test_queries_leave_the_post_load_stores(policy, shards):
    target, backends, (left, right) = load(shards)
    loaded = footprint(backends)
    with Session(target, BUDGET, boundary_policy=policy) as session:
        answers = set()
        for _ in range(5):
            result = session.query(build_query(left, right))
            answers.add(tuple(result.records))
            assert footprint(backends) == loaded
        assert len(answers) == 1
        with pytest.raises(OperatorFailure):
            session.query(build_query(left, right, fail=True))
        assert footprint(backends) == loaded


def tracked(kinds):
    return [obj for obj in gc.get_objects() if isinstance(obj, kinds)]


@pytest.mark.parametrize("policy", ["defer", "cost"])
def test_finished_queries_leave_no_context_or_collection_alive(policy):
    kinds = (OperatorContext, PersistentCollection)
    backend, _, (left, right) = load(1)
    gc.collect()
    gc.disable()
    try:
        # Held, so that no id of theirs is reused by a query's object.
        before = tracked(kinds)
        with Session(backend, BUDGET, boundary_policy=policy) as session:
            for _ in range(5):
                session.query(build_query(left, right))
        known = set(map(id, before))
        alive = [obj for obj in tracked(kinds) if id(obj) not in known]
    finally:
        gc.enable()
    assert alive == []
