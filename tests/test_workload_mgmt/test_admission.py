"""Admission control: sizing, policies, arrival order, cancellation."""

import pytest

from repro import MemoryBudget, Query, Session, ShardSet
from repro.exceptions import (
    AdmissionRejectedError,
    ConfigurationError,
    QueryCancelledError,
)
from repro.shard.planner import ShardedPlanner
from repro.storage.bufferpool import Bufferpool
from repro.workload_mgmt import QueryStatus, estimate_plan_memory_bytes
from repro.workload_mgmt.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    admission_floor_bytes,
    resolve_policy,
)
from repro.workload_mgmt.handle import QueryHandle
from repro.workloads.generator import (
    make_join_inputs,
    make_sort_input,
)

from tests.test_workload_mgmt.conftest import gated

RECORD_BYTES = 80  # WISCONSIN_SCHEMA.record_bytes


def make_handle(seq, requested, tag=None):
    handle = QueryHandle(object(), tag=tag, seq=seq)
    handle.requested_bytes = requested
    return handle


class TestEstimator:
    def test_filter_only_plan_wants_a_block(self, backend):
        collection = make_sort_input(500, backend)
        budget = MemoryBudget.from_records(400)
        plan = ShardedPlanner(ShardSet([backend]), budget).plan(
            Query.scan(collection).filter(lambda r: True, selectivity=1.0)
        )
        assert estimate_plan_memory_bytes(plan) == budget.block_bytes

    def test_sort_demand_tracks_input_but_caps_at_budget(self, backend):
        collection = make_sort_input(100, backend)  # 8000 bytes
        query = Query.scan(collection).order_by()
        big_demand = estimate_plan_memory_bytes(
            ShardedPlanner(ShardSet([backend]), MemoryBudget(1 << 20)).plan(query)
        )
        small_demand = estimate_plan_memory_bytes(
            ShardedPlanner(ShardSet([backend]), MemoryBudget(4000)).plan(query)
        )
        assert big_demand == pytest.approx(100 * RECORD_BYTES, rel=0.01)
        assert small_demand <= 4000

    def test_join_demand_is_the_build_side(self, backend):
        left, right = make_join_inputs(50, 2000, backend)
        plan = ShardedPlanner(ShardSet([backend]), MemoryBudget(1 << 20)).plan(
            Query.scan(left).join(Query.scan(right))
        )
        demand = estimate_plan_memory_bytes(plan)
        # The smaller (build) input bounds the useful workspace.
        assert demand <= 2 * 50 * RECORD_BYTES

    def test_sharded_demand_scales_with_shards(self):
        shard_set = ShardSet.create(2)
        collection = make_sort_input(100, shard_set)
        plan = ShardedPlanner(shard_set, MemoryBudget(1 << 20)).plan(
            Query.scan(collection).order_by()
        )
        demand = estimate_plan_memory_bytes(plan)
        per_fragment = demand / 2
        assert per_fragment == pytest.approx(
            max(len(shard.records) for shard in collection.shards)
            * RECORD_BYTES,
            rel=0.25,
        )


class TestPolicies:
    def test_registry_and_resolution(self):
        assert ADMISSION_POLICIES == ("queue", "shed", "degrade")
        assert resolve_policy("queue") == "queue"
        with pytest.raises(ConfigurationError, match="admission policy"):
            resolve_policy("eager")

    def test_queue_policy_parks_the_overflow(self):
        pool = Bufferpool(MemoryBudget(10_000))
        controller = AdmissionController(pool)
        first = make_handle(0, 8_000)
        second = make_handle(1, 8_000)
        assert controller.try_admit(first)
        assert not controller.try_admit(second)
        assert second.status is QueryStatus.QUEUED
        # Releasing the first admits the waiter at its requested size.
        admitted = controller.release(first)
        assert admitted == [second]
        assert second.admitted_bytes == 8_000
        assert pool.reserved_bytes == 8_000

    def test_shed_policy_rejects_with_admission_error(self):
        pool = Bufferpool(MemoryBudget(10_000))
        controller = AdmissionController(pool)
        assert controller.try_admit(make_handle(0, 9_000))
        shed = make_handle(1, 9_000, tag="victim")
        assert not controller.try_admit(shed, policy="shed")
        assert shed.status is QueryStatus.REJECTED
        with pytest.raises(AdmissionRejectedError, match="victim"):
            raise shed.error

    def test_degrade_policy_halves_until_it_fits(self):
        pool = Bufferpool(MemoryBudget(20_000))
        controller = AdmissionController(pool)
        assert controller.try_admit(make_handle(0, 12_000))
        degraded = make_handle(1, 12_000)
        assert controller.try_admit(degraded, policy="degrade")
        assert degraded.degraded
        assert degraded.admitted_bytes == 6_000
        assert pool.reserved_bytes == 18_000

    def test_degrade_policy_queues_at_the_floor(self):
        budget = MemoryBudget(10_000)
        pool = Bufferpool(budget)
        controller = AdmissionController(pool)
        assert controller.try_admit(make_handle(0, 10_000))
        floored = make_handle(1, 8_000)
        assert not controller.try_admit(floored, policy="degrade")
        assert floored.status is QueryStatus.QUEUED
        assert floored.requested_bytes == admission_floor_bytes(budget)

    def test_waiters_are_admitted_in_arrival_order(self):
        pool = Bufferpool(MemoryBudget(10_000))
        controller = AdmissionController(pool)
        first = make_handle(0, 10_000)
        assert controller.try_admit(first)
        early = make_handle(1, 4_000)
        late = make_handle(2, 4_000)
        assert not controller.try_admit(early)
        assert not controller.try_admit(late)
        admitted = controller.release(first)
        assert admitted == [early, late]

    def test_head_of_line_blocking_prevents_starvation(self):
        pool = Bufferpool(MemoryBudget(10_000))
        controller = AdmissionController(pool)
        running = make_handle(0, 6_000)
        assert controller.try_admit(running)
        big = make_handle(1, 9_000)
        small = make_handle(2, 1_000)
        assert not controller.try_admit(big)
        # The small one arrives later and would fit right now, but must
        # not overtake the big head-of-line waiter.
        controller._pending.append(small)
        admitted = controller.release(running)
        assert admitted == [big]

    def test_exhaustion_message_names_the_holders(self):
        pool = Bufferpool(MemoryBudget(10_000))
        pool.reserve(9_000, owner="query-7")
        from repro.exceptions import BufferpoolExhaustedError

        with pytest.raises(BufferpoolExhaustedError, match="query-7=9000"):
            pool.reserve(5_000, owner="late")


class TestCancel:
    def test_cancel_queued_query(self, backend, gate):
        collection = make_sort_input(300, backend)
        with Session(backend, MemoryBudget.from_records(100)) as session:
            blocker = session.submit(
                gated(gate, collection), memory_bytes=session.budget.nbytes
            )
            queued = session.submit(
                Query.scan(collection).order_by(),
                memory_bytes=session.budget.nbytes,
            )
            assert queued.status is QueryStatus.QUEUED
            assert queued.admitted_bytes is None
            assert queued.cancel()
            assert queued.status is QueryStatus.CANCELLED
            with pytest.raises(QueryCancelledError):
                queued.result()
            gate.set()
            assert len(blocker.result().records) == 300
        assert session.bufferpool.holders() == {}

    def test_cancel_after_completion_returns_false(self, backend):
        collection = make_sort_input(100, backend)
        with Session(backend, MemoryBudget.from_records(50)) as session:
            handle = session.submit(Query.scan(collection).order_by())
            handle.result()
            assert not handle.cancel()
