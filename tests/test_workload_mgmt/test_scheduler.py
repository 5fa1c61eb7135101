"""Co-scheduling: one serial worker, equivalence, timing."""

import pathlib
import sys
import threading
import time
import warnings

import pytest

from repro import MemoryBudget, Query, Session, ShardSet
from repro.exceptions import ConfigurationError
from repro.shard import HashPartitioner
from repro.shard.planner import ShardedPlanner
from repro.workload_mgmt import DeviceWorkerPool, QueryStatus
from repro.workloads.generator import (
    make_join_inputs,
    make_sort_input,
)

from tests.conftest import build_collection
from tests.golden_pass import cli_output
from tests.test_workload_mgmt.conftest import gated

GOLDEN_CLI = pathlib.Path(__file__).parents[1] / "golden_cli"


class TestDeviceWorkerPool:
    def test_tasks_never_overlap_and_run_in_submission_order(self):
        pool = DeviceWorkerPool(3)
        active = [0]
        overlapped, order = [], []
        lock = threading.Lock()

        def task(index):
            with lock:
                active[0] += 1
                if active[0] > 1:
                    overlapped.append(index)
                order.append(index)
            # 60 tasks racing on several threads would overlap with
            # near-certainty.
            for _ in range(1000):
                pass
            with lock:
                active[0] -= 1

        futures = [pool.submit(index % 3, task, index) for index in range(60)]
        for future in futures:
            future.result()
        pool.shutdown()
        assert overlapped == []
        assert order == list(range(60))


class TestCoScheduling:
    def test_concurrent_workload_matches_serial_records(self):
        shard_set = ShardSet.create(2)
        sort_input = make_sort_input(240, shard_set, name="T")
        left, right = make_join_inputs(80, 800, shard_set)
        queries = [
            {"query": Query.scan(sort_input).order_by(), "tag": "sort"},
            {
                "query": Query.scan(left).join(Query.scan(right)),
                "tag": "join",
            },
            {
                "query": Query.scan(sort_input).group_by(
                    1, {"count": 1}, estimated_groups=120
                ),
                "tag": "agg",
            },
        ]
        budget = MemoryBudget(64_000)
        share = budget.nbytes // 3
        with Session(shard_set, budget) as session:
            concurrent = session.run_workload(
                [dict(item, memory_bytes=share) for item in queries],
                policy="queue",
            )
            assert [h.status for h in concurrent.handles] == [QueryStatus.DONE] * 3
            serial = [
                session.submit(item["query"], memory_bytes=share).result()
                for item in queries
            ]
        for handle, serial_result in zip(concurrent.handles, serial):
            assert handle.result().records == serial_result.records

    def test_a_mixed_batch_runs_on_one_worker_thread(self):
        """A plain query on each shard, a repartition join and a sharded
        sort evaluate every predicate on one thread, not the client's."""
        shard_set = ShardSet.create(2)
        plains = [
            build_collection(shard_set.backends[index], range(200), f"P{index}")
            for index in range(2)
        ]
        sort_input = make_sort_input(200, shard_set, name="T")
        left, right = make_join_inputs(
            50, 200, shard_set, right_partitioner=HashPartitioner(2, key_index=1)
        )
        threads = set()

        def predicate(record):
            threads.add(threading.get_ident())
            return record[0] % 2 == 0

        queries = [
            Query.scan(plain).filter(predicate, selectivity=0.5)
            for plain in plains
        ] + [
            Query.scan(left).filter(predicate, selectivity=0.5).join(
                Query.scan(right)
            ),
            Query.scan(sort_input).filter(predicate, selectivity=0.5).order_by(),
        ]
        with Session(shard_set, MemoryBudget(64_000)) as session:
            result = session.run_workload(queries)
            assert len(result.completed) == len(queries)
            assert result.handles[2].result().exchange_records
        assert len(threads) == 1
        assert threading.get_ident() not in threads

    @pytest.mark.parametrize(
        "golden, policy",
        [
            ("workload_records_400_shards_4", "queue"),
            ("workload_records_400_shards_4_degrade", "degrade"),
        ],
    )
    def test_workload_report_repeats_under_a_short_switch_interval(
        self, golden, policy
    ):
        """A batch is queued on the one worker whole, before any waiter a
        release admits, so the report -- simulated queue waits included --
        does not depend on how the threads interleave."""
        expected = (GOLDEN_CLI / f"{golden}.txt").read_text(encoding="utf-8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outputs = [
                cli_output(
                    "workload", "--records", "400", "--shards", "4",
                    "--policy", policy,
                )
                for _ in range(3)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert outputs == [expected] * 3

    def test_single_device_queries_on_distinct_shards_overlap(self):
        """Two plain queries on different shard backends co-run: the
        workload critical path stays below the serial sum."""
        shard_set = ShardSet.create(2)
        a = build_collection(shard_set.backends[0], range(4000), "A")
        b = build_collection(shard_set.backends[1], range(4000), "B")
        with Session(shard_set, MemoryBudget(64_000)) as session:
            result = session.run_workload(
                [
                    Query.scan(a).filter(lambda r: r[0] % 2 == 0, selectivity=0.5),
                    Query.scan(b).filter(lambda r: r[0] % 2 == 0, selectivity=0.5),
                ]
            )
            assert len(result.completed) == 2
            assert result.critical_path_ns < result.serial_sum_ns
            assert result.overlap > 1.5

    def test_queue_waits_are_reported(self, backend):
        collection = build_collection(backend, range(2000), "Q")
        query = Query.scan(collection).order_by()
        with Session(backend, MemoryBudget(32_000)) as session:
            result = session.run_workload(
                [
                    {"query": query, "memory_bytes": 24_000, "tag": "first"},
                    {"query": query, "memory_bytes": 24_000, "tag": "second"},
                ],
                policy="queue",
            )
            first, second = result.handles
            assert first.queue_wait_ns == 0.0
            assert second.queue_wait_ns > 0.0
            assert second.queue_wait_ns == pytest.approx(first.run_ns)
            rendered = result.explain()
            assert "queue-wait" in rendered
            assert "critical path" in rendered

    def test_critical_path_bounded_by_serial_sum(self):
        shard_set = ShardSet.create(2)
        sort_input = make_sort_input(200, shard_set)
        plain = build_collection(shard_set.backends[0], range(500), "P")
        with Session(shard_set, MemoryBudget(48_000)) as session:
            result = session.run_workload(
                [
                    Query.scan(sort_input).order_by(),
                    Query.scan(plain).filter(lambda r: r[0] < 250, selectivity=0.5),
                ]
            )
            assert result.critical_path_ns <= result.serial_sum_ns + 1e-6

    def test_failed_query_releases_memory_and_reports(self, backend):
        bad = build_collection(backend, range(100), "BAD")

        def exploding(record):
            raise RuntimeError("predicate exploded")

        with Session(backend, MemoryBudget(32_000)) as session:
            handle = session.submit(
                Query.scan(bad).filter(exploding, selectivity=0.5)
            )
            handle.wait()
            assert handle.status is QueryStatus.FAILED
            with pytest.raises(RuntimeError, match="predicate exploded"):
                handle.result()
            # The admitted share was returned despite the failure.
            follow_up = session.submit(
                Query.scan(bad).filter(lambda r: True, selectivity=1.0)
            )
            assert len(follow_up.result().records) == 100
        assert session.bufferpool.holders() == {}


class TestDispatchLifecycle:
    def test_close_waits_for_a_running_query_and_returns_its_share(
        self, backend, gate
    ):
        collection = build_collection(backend, range(100), "IDLE")
        session = Session(backend, MemoryBudget(32_000))
        handle = session.submit(gated(gate, collection), memory_bytes=8_000)
        assert handle.status is QueryStatus.RUNNING
        assert session.bufferpool.reserved_bytes == 8_000
        with warnings.catch_warnings():
            # A share left behind would make close() warn about a leak.
            warnings.simplefilter("error", ResourceWarning)
            closer = threading.Thread(target=session.close)
            closer.start()
            closer.join(0.2)
            assert closer.is_alive()
            gate.set()
            closer.join(10)
        assert not closer.is_alive()
        assert handle.status is QueryStatus.DONE
        assert len(handle.result().records) == 100
        assert session.bufferpool.reserved_bytes == 0

    @pytest.mark.parametrize("bad", ["validation", "planning"])
    def test_a_batch_with_a_bad_last_item_admits_nothing(self, backend, bad):
        collection = build_collection(backend, range(100), "BATCH")
        query = Query.scan(collection).order_by()
        with Session(backend, MemoryBudget(32_000)) as session:
            controller = session.scheduler.controller
            admissions = []
            try_admit = controller.try_admit

            def spy(handle, policy="queue"):
                admissions.append(handle)
                return try_admit(handle, policy=policy)

            controller.try_admit = spy
            if bad == "validation":
                last = {"query": query, "memory_bytes": 0}
            else:
                # A plan is not a query: the planner rejects it.
                last = ShardedPlanner(session.shard_set, session.budget).plan(
                    query
                )
            with pytest.raises(ConfigurationError):
                session.run_workload([query, query, last], policy="queue")
            assert admissions == []
            assert session.bufferpool.reserved_bytes == 0
            assert len(session.query(query).records) == 100

    def test_close_waits_for_batch_members_admitted_but_not_started(
        self, backend
    ):
        """``close()`` from another thread while ``run_workload`` sits
        between admitting its batch and starting it: the members are
        running from admission on, so close waits for them, and the
        worker pool is still up when they start."""
        collection = build_collection(backend, range(100), "LATE")
        query = Query.scan(collection).filter(lambda r: True, selectivity=1.0)
        session = Session(backend, MemoryBudget(32_000))
        scheduler = session.scheduler
        batch, after_close = [], []
        admitted = threading.Event()
        start = scheduler._start

        def gated_start(handles):
            if threading.current_thread() is threading.main_thread():
                batch.extend(handles)
                admitted.set()
                deadline = time.monotonic() + 10
                while not scheduler._closed and time.monotonic() < deadline:
                    time.sleep(0.001)  # until close() has begun
            start(handles)

        def close():
            admitted.wait(10)
            session.close()
            after_close.extend(handle.status for handle in batch)

        scheduler._start = gated_start
        closer = threading.Thread(target=close)
        closer.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            report = session.run_workload(
                [{"query": query, "memory_bytes": 8_000}] * 2, policy="queue"
            )
            closer.join(10)
        assert not closer.is_alive()
        assert batch == report.handles
        assert after_close == [QueryStatus.DONE] * 2
        assert session.bufferpool.holders() == {}

    def test_batches_under_admission_pressure_run_every_query_once(self):
        """Stress: batches over two devices under a budget admitting two
        queries at a time, with a short switch interval so releases on
        the workers race the start loop.  A double dispatch fails the
        duplicate run; a lost one never finishes."""
        shard_set = ShardSet.create(2)
        plains = [
            build_collection(shard_set.backends[index], range(40), f"S{index}")
            for index in range(2)
        ]
        sharded = make_sort_input(40, shard_set)
        queries = [
            Query.scan(plains[index % 2]).filter(
                lambda r: r[0] % 2 == 0, selectivity=0.5
            )
            for index in range(10)
        ] + [Query.scan(sharded).filter(lambda r: r[0] < 20, selectivity=0.5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Session(shard_set, MemoryBudget(16_384)) as session:
                for _ in range(30):
                    result = session.run_workload(
                        [{"query": q, "memory_bytes": 8_192} for q in queries],
                        policy="queue",
                    )
                    for handle in result.handles:
                        assert handle.wait(10)
                    assert [h.status for h in result.handles] == [
                        QueryStatus.DONE
                    ] * len(queries)
                    assert [len(h.result().records) for h in result.handles] == [
                        20
                    ] * len(queries)
                assert session.bufferpool.reserved_bytes == 0
        finally:
            sys.setswitchinterval(interval)
