"""Executor-level behavior: the calling thread, shares, step accounting."""

import threading
from itertools import count

import pytest

from repro.exceptions import BufferpoolExhaustedError
from repro.joins.common import partition_of
from repro.query import Query
from repro.session import Session
from repro.shard import (
    HashPartitioner,
    ShardSet,
    ShardedCollection,
    ShardedPlanner,
    ShardedQueryExecutor,
)
from repro.shard.planner import ExchangeStep
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from tests.test_shard.routed_keys import keys_routed_to


def build_sharded(shard_set, name, keys, partitioner=None):
    collection = ShardedCollection(name, shard_set, partitioner=partitioner)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    collection.seal()
    return collection


def repartitioned_join(shard_set, predicate=None):
    left = build_sharded(shard_set, "L", list(range(60)))
    right = build_sharded(
        shard_set,
        "R",
        [key % 60 for key in range(360)],
        partitioner=HashPartitioner(shard_set.num_shards, key_index=1),
    )
    scan = Query.scan(left)
    if predicate is not None:
        scan = scan.filter(predicate, selectivity=1.0)
    return scan.join(Query.scan(right))


@pytest.mark.parametrize("shards, budget_records", [(2, 30), (3, 45)])
def test_same_plan_executes_twice_identically(shards, budget_records):
    """The exchange destinations a plan carries are DROPPED when an
    execution ends; the next execution gives each a fresh store."""
    shard_set = ShardSet.create(shards)
    query = repartitioned_join(shard_set)
    budget = MemoryBudget.from_records(budget_records)
    plan = ShardedPlanner(shard_set, budget).plan(query)
    executor = ShardedQueryExecutor(shard_set, Bufferpool(budget))

    def footprint():
        return [
            (backend.stores(), backend.device.allocated_bytes)
            for backend in shard_set.backends
        ]

    loaded = footprint()
    first = executor.execute(plan)
    assert footprint() == loaded
    second = executor.execute(plan)
    assert footprint() == loaded
    assert len(first.records) == 360
    assert second.records == first.records
    assert second.io == first.io
    assert first.critical_path_ns == second.critical_path_ns


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_co_scheduled_copies_account_like_one_run_alone(shards):
    """A query run alone and three copies admitted together in one
    workload account alike: every task measures its own device delta."""
    share = MemoryBudget.from_records(30 * shards).nbytes
    # Room for three shares, so the three copies are admitted at once.
    budget = MemoryBudget(3 * share)

    def run(copies):
        shard_set = ShardSet.create(shards)
        items = [
            {"query": repartitioned_join(shard_set), "memory_bytes": share}
            for _ in range(copies)
        ]
        with Session(shard_set, budget) as session:
            report = session.run_workload(items, policy="queue")
        assert [handle.admitted_bytes for handle in report.handles] == [share] * copies
        assert [handle.queue_wait_ns for handle in report.handles] == [0.0] * copies
        return [handle.result() for handle in report.handles]

    (alone,) = run(1)
    for shared in run(3):
        assert shared.records == alone.records
        assert shared.io == alone.io
        assert shared.per_shard_io == alone.per_shard_io
        assert shared.critical_path_ns == alone.critical_path_ns


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_execution_returns_every_share_and_store(shards):
    """After a query the caller's pool holds no reservation and the
    backends hold exactly the loaded stores."""
    shard_set = ShardSet.create(shards)
    query = repartitioned_join(shard_set)
    budget = MemoryBudget.from_records(15 * shards)
    plan = ShardedPlanner(shard_set, budget, boundary_policy="materialize").plan(
        query
    )
    loaded = [backend.stores() for backend in shard_set.backends]
    pool = Bufferpool(budget)
    result = ShardedQueryExecutor(shard_set, pool).execute(plan)
    assert len(result.records) == 360
    assert pool.reserved_bytes == 0
    assert [backend.stores() for backend in shard_set.backends] == loaded


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_every_plan_runs_on_the_calling_thread(shards):
    """Every shard task, exchange phases included, runs on the thread
    that called ``execute``: every device charge and every predicate."""
    shard_set = ShardSet.create(shards)
    threads = set()

    def on_thread(call):
        def traced(*args, **kwargs):
            threads.add(threading.get_ident())
            return call(*args, **kwargs)

        return traced

    def predicate(record):
        threads.add(threading.get_ident())
        return True

    query = repartitioned_join(shard_set, predicate)
    budget = MemoryBudget.from_records(15 * shards)
    plan = ShardedPlanner(shard_set, budget).plan(query)
    assert any(isinstance(s, ExchangeStep) for s in plan.steps) == (shards > 1)
    for device in shard_set.devices:
        for name in ("read", "write", "read_bulk", "write_bulk"):
            setattr(device, name, on_thread(getattr(device, name)))
    result = ShardedQueryExecutor(shard_set, Bufferpool(budget)).execute(plan)
    assert len(result.records) == 360
    assert result.io.total_cachelines > 0
    assert threads == {threading.get_ident()}


def test_plain_collection_plan_is_placed_on_its_backend():
    """A plan over one plain collection runs on that backend alone, and
    its critical path is its whole device time."""
    shard_set = ShardSet.create(2)
    plain = PersistentCollection(
        name="P", backend=shard_set.backends[1], schema=WISCONSIN_SCHEMA
    )
    plain.extend(WISCONSIN_SCHEMA.make_record(key) for key in range(40))
    plain.seal()
    budget = MemoryBudget.from_records(20)
    plan = ShardedPlanner(shard_set, budget).plan(Query.scan(plain).order_by())
    result = ShardedQueryExecutor(shard_set, Bufferpool(budget)).execute(plan)
    assert result.plan.num_shards == 1
    assert result.plan.shard_set.backends == [shard_set.backends[1]]
    assert [r[0] for r in result.records] == list(range(40))
    assert result.per_shard_io[0] == result.io
    assert result.critical_path_ns == result.io.total_ns


def test_parent_pool_too_small_for_shares_raises():
    shard_set = ShardSet.create(4)
    query = repartitioned_join(shard_set)
    budget = MemoryBudget.from_records(60)
    plan = ShardedPlanner(shard_set, budget).plan(query)
    # An external pool with most of the budget already taken: the four
    # 1/4 shares cannot all be carved out.
    pool = Bufferpool(budget)
    pool.reserve(budget.nbytes // 2, owner="someone-else")
    executor = ShardedQueryExecutor(shard_set, pool)
    with pytest.raises(BufferpoolExhaustedError):
        executor.execute(plan)


def test_exchange_moves_every_record_exactly_once():
    shard_set = ShardSet.create(4)
    query = repartitioned_join(shard_set)
    with Session(shard_set, MemoryBudget.from_records(60)) as session:
        result = session.query(query)
    exchange_steps = [
        step for step in result.plan.steps if isinstance(step, ExchangeStep)
    ]
    assert len(exchange_steps) == 1
    step = exchange_steps[0]
    assert result.exchange_records[step.index] == 360
    assert sum(len(dest.records) for dest in step.dests) == 360
    # Every destination shard holds exactly the records its partitioner
    # routes to it.
    for index, dest in enumerate(step.dests):
        assert step.partitioner.split(dest.records)[index] == dest.records


def test_explain_reports_exchange_actuals():
    shard_set = ShardSet.create(2)
    query = repartitioned_join(shard_set)
    with Session(shard_set, MemoryBudget.from_records(30)) as session:
        result = session.query(query)
    rendered = result.explain()
    assert "exchange on hash(attr 0)" in rendered
    assert "right input not partitioned on its join key" in rendered
    assert "rec moved" in rendered
    assert "critical path: est" in rendered
    assert "actual" in rendered


def test_step_io_covers_all_devices_per_step():
    shard_set = ShardSet.create(3)
    query = repartitioned_join(shard_set)
    with Session(shard_set, MemoryBudget.from_records(45)) as session:
        result = session.query(query)
    assert set(result.step_io) == {step.index for step in result.plan.steps}
    for deltas in result.step_io.values():
        assert len(deltas) == 3
    # Per-shard totals decompose exactly into the per-step deltas.
    for shard in range(3):
        total = result.step_io[0][shard]
        for index in sorted(result.step_io)[1:]:
            total = total + result.step_io[index][shard]
        assert total.cacheline_reads == result.per_shard_io[shard].cacheline_reads
        assert total.cacheline_writes == result.per_shard_io[shard].cacheline_writes


def test_failed_share_carving_releases_partial_shares():
    shard_set = ShardSet.create(4)
    query = repartitioned_join(shard_set)
    budget = MemoryBudget.from_records(60)
    plan = ShardedPlanner(shard_set, budget).plan(query)
    pool = Bufferpool(budget)
    pool.reserve(budget.nbytes // 2, owner="someone-else")
    executor = ShardedQueryExecutor(shard_set, pool)
    with pytest.raises(BufferpoolExhaustedError):
        executor.execute(plan)
    # Only the external reservation remains: the shares carved before the
    # failure were all returned.
    assert pool.reserved_bytes == budget.nbytes // 2


def test_plan_from_other_shard_set_rejected():
    from repro.exceptions import ConfigurationError

    set_a = ShardSet.create(2)
    set_b = ShardSet.create(2)
    query = repartitioned_join(set_a)
    budget = MemoryBudget.from_records(30)
    plan = ShardedPlanner(set_a, budget).plan(query)
    executor = ShardedQueryExecutor(set_b, Bufferpool(budget))
    with pytest.raises(ConfigurationError, match="different shard set"):
        executor.execute(plan)


def test_exchange_critical_path_is_phase_aware():
    """The exchange's read and write phases are barriers: the critical
    path is slowest-read + slowest-write, not the busiest single device.
    """
    # The probe input sits entirely on shard 0 but must be joined against
    # a build side living entirely on shard 1: the exchange reads on
    # shard 0 and writes on shard 1, so no single device sees both
    # phases' worth of work.
    shard_set = ShardSet.create(2)
    # Every key routes to shard 1; its record's attribute 1 (key // 2)
    # routes to shard 0.
    keys = keys_routed_to(
        {1}, 2, 40, keys=(key for key in count() if partition_of(key // 2, 2) == 0)
    )
    left = build_sharded(shard_set, "L", keys, HashPartitioner(2))
    right = build_sharded(
        shard_set,
        "R",
        [keys[index % 40] for index in range(240)],
        partitioner=HashPartitioner(2, key_index=1),
    )
    assert [len(shard) for shard in left.shards] == [0, 40]
    assert [len(shard) for shard in right.shards] == [240, 0]
    with Session(shard_set, MemoryBudget.from_records(30)) as session:
        result = session.query(Query.scan(left).join(Query.scan(right)))
    step = next(
        s for s in result.plan.steps if isinstance(s, ExchangeStep)
    )
    deltas = result.step_io[step.index]
    # Phase-aware critical path must exceed the busiest combined device:
    # the write barrier cannot overlap shard 0's reads.
    busiest_combined = max(delta.total_ns for delta in deltas)
    exchange_critical = result.critical_path_ns - sum(
        max(io.total_ns for io in result.step_io[s.index])
        for s in result.plan.steps
        if not isinstance(s, ExchangeStep)
    )
    assert exchange_critical > busiest_combined


def test_planning_leaves_devices_untouched():
    shard_set = ShardSet.create(2)
    query = repartitioned_join(shard_set)
    allocated_before = [d.allocated_bytes for d in shard_set.devices]
    stores_before = [set(b.stores()) for b in shard_set.backends]
    ShardedPlanner(shard_set, MemoryBudget.from_records(30)).plan(query)
    assert [d.allocated_bytes for d in shard_set.devices] == allocated_before
    assert [set(b.stores()) for b in shard_set.backends] == stores_before


def test_exchange_stores_released_after_execution():
    shard_set = ShardSet.create(2)
    budget = MemoryBudget.from_records(30)
    allocated_after_load = None
    with Session(shard_set, budget) as session:
        for _ in range(3):
            query = repartitioned_join(shard_set)
            if allocated_after_load is None:
                allocated_after_load = [
                    d.allocated_bytes for d in shard_set.devices
                ]
            result = session.query(query)
            assert len(result.records) == 360
    # Three queries later, only the loaded base relations still hold
    # device allocation: exchange intermediates were all released.
    grown = [
        d.allocated_bytes - base
        for d, base in zip(shard_set.devices, allocated_after_load)
    ]
    base_load = sum(allocated_after_load)
    # Each loop iteration loads fresh L/R collections (2x the first load);
    # nothing beyond those loads may remain allocated.
    assert sum(d.allocated_bytes for d in shard_set.devices) <= 3 * base_load
    for backend in shard_set.backends:
        assert not any("exchange" in store.label for store in backend.stores())
