"""The redesigned Session front door: lifecycle, shim, routing, reports."""

import pytest

from repro import MemoryBudget, Query, Session, ShardSet
from repro.exceptions import AdmissionRejectedError, ConfigurationError
from repro.query import CostBasedPlanner
from repro.workload_mgmt import QueryStatus
from repro.shard.planner import ShardedPlanner
from repro.workloads.generator import make_sort_input

from tests.conftest import build_collection
from tests.test_workload_mgmt.conftest import gated


class TestContextManager:
    def test_with_session_closes(self, backend):
        collection = make_sort_input(100, backend)
        with Session(backend, MemoryBudget.from_records(50)) as session:
            result = session.query(Query.scan(collection).order_by())
            assert len(result.records) == 100
        with pytest.raises(ConfigurationError, match="closed"):
            session.query(Query.scan(collection).order_by())

    def test_close_is_idempotent(self, backend):
        session = Session(backend, MemoryBudget(1 << 20))
        session.close()
        session.close()
        with pytest.raises(ConfigurationError, match="closed"):
            session.scheduler

    def test_close_warns_on_leaked_reservations(self, backend):
        session = Session(backend, MemoryBudget.from_records(50))
        session.bufferpool.reserve(1_000, owner="leaky-operator")
        with pytest.warns(ResourceWarning, match="leaky-operator"):
            session.close()
        # The leak was force-released and the session-owned pool closed.
        assert session.bufferpool.holders() == {}
        with pytest.raises(ConfigurationError, match="closed"):
            session.bufferpool.reserve(1, owner="anyone")

    def test_close_waits_for_inflight_queries(self, backend):
        collection = make_sort_input(1500, backend)
        session = Session(backend, MemoryBudget.from_records(100))
        handle = session.submit(Query.scan(collection).order_by())
        session.close()
        assert handle.status is QueryStatus.DONE
        assert [r[0] for r in handle.result().records] == sorted(
            r[0] for r in collection.records
        )

    def test_close_resolves_queued_queries(self, backend):
        collection = make_sort_input(1200, backend)
        session = Session(backend, MemoryBudget.from_records(100))
        running = session.submit(
            Query.scan(collection).order_by(),
            memory_bytes=session.budget.nbytes,
        )
        queued = session.submit(
            Query.scan(collection).order_by(),
            memory_bytes=session.budget.nbytes,
        )
        session.close()
        assert running.status is QueryStatus.DONE
        # close() either cancelled the waiter before the running query
        # finished, or the running query finished first and its release
        # admitted the waiter -- but it is never left stranded.
        assert queued.status in (QueryStatus.CANCELLED, QueryStatus.DONE)
        assert session.bufferpool.holders() == {}

    def test_shutdown_cancels_a_parked_queue(self, backend, gate):
        """Deterministic cancellation: the blocker runs until the gate
        opens, so the queued handle cannot be admitted before shutdown
        drains it."""
        collection = make_sort_input(300, backend)
        session = Session(backend, MemoryBudget.from_records(100))
        blocker = session.submit(
            gated(gate, collection), memory_bytes=session.budget.nbytes
        )
        queued = session.submit(
            Query.scan(collection).order_by(),
            memory_bytes=session.budget.nbytes,
        )
        assert queued.status is QueryStatus.QUEUED
        cancelled = session.scheduler.shutdown(wait=False)
        assert cancelled == [queued]
        assert queued.status is QueryStatus.CANCELLED
        # The blocker still runs; once it finishes its share is back and
        # the pool is clean.
        assert blocker.status is QueryStatus.RUNNING
        gate.set()
        assert len(blocker.result(timeout=10).records) == 300
        assert session.bufferpool.holders() == {}


class TestQueryShim:
    def test_query_is_submit_then_result(self, backend):
        collection = make_sort_input(200, backend)
        with Session(backend, MemoryBudget.from_records(60)) as session:
            via_query = session.query(Query.scan(collection).order_by())
            handle = session.submit(
                Query.scan(collection).order_by(),
                memory_bytes=session.budget.nbytes,
            )
            assert via_query.records == handle.result().records

    def test_query_sheds_instead_of_waiting(self, backend):
        budget = MemoryBudget.from_records(100)
        collection = make_sort_input(100, backend)
        session = Session(backend, budget)
        session.bufferpool.reserve(budget.nbytes - 100, owner="external-user")
        with pytest.raises(AdmissionRejectedError):
            session.query(Query.scan(collection).order_by())

class TestDegradeThroughSession:
    def test_degraded_query_is_replanned_under_its_admitted_share(
        self, backend
    ):
        """``run_workload`` decides admission for the whole batch before
        any query starts, so the blocker still holds its share when the
        second sort asks for the whole budget."""
        collection = make_sort_input(400, backend)
        budget = MemoryBudget.from_records(100)
        query = Query.scan(collection).order_by()
        with Session(backend, budget) as session:
            report = session.run_workload(
                [
                    {
                        "query": query,
                        "memory_bytes": (budget.nbytes * 3) // 4,
                        "tag": "blocker",
                    },
                    {
                        "query": query,
                        "memory_bytes": budget.nbytes,
                        "tag": "degraded",
                    },
                ],
                policy="degrade",
            )
            serial = session.query(query)
        blocker, degraded = report.handles
        assert blocker.status is QueryStatus.DONE
        assert not blocker.degraded
        assert degraded.status is QueryStatus.DONE
        assert degraded.degraded
        assert degraded.admitted_bytes < budget.nbytes
        result = degraded.result()
        assert result.plan.budget.nbytes == degraded.admitted_bytes
        assert result.records == serial.records


class TestMixedRouting:
    def test_plain_query_on_shard_backend_runs(self):
        shard_set = ShardSet.create(2)
        plain = build_collection(shard_set.backends[1], range(200), "ON-SHARD")
        with Session(shard_set, MemoryBudget.from_records(60)) as session:
            result = session.query(
                Query.scan(plain).filter(lambda r: r[0] < 100, selectivity=0.5)
            )
            assert len(result.records) == 100

    def test_plain_query_off_the_shard_set_rejected(self, backend):
        shard_set = ShardSet.create(2)
        foreign = build_collection(backend, range(50), "FOREIGN")
        session = Session(shard_set, MemoryBudget.from_records(60))
        with pytest.raises(ConfigurationError, match="ShardSet"):
            session.query(Query.scan(foreign).order_by())

    def test_mixed_workload_single_device_and_sharded(self):
        shard_set = ShardSet.create(2)
        sharded = make_sort_input(200, shard_set)
        plain = build_collection(shard_set.backends[0], range(150), "MIX")
        with Session(shard_set, MemoryBudget(64_000)) as session:
            report = session.run_workload(
                [
                    {"query": Query.scan(sharded).order_by(), "tag": "sharded"},
                    {
                        "query": Query.scan(plain).filter(
                            lambda r: r[0] < 75, selectivity=0.5
                        ),
                        "tag": "plain",
                    },
                ]
            )
            assert len(report.completed) == 2
            by_tag = {handle.tag: handle for handle in report.handles}
            assert len(by_tag["plain"].result().records) == 75
            assert len(by_tag["sharded"].result().records) == 200


class TestCalibrationReport:
    def test_report_aggregates_across_queries(self, backend):
        collection = make_sort_input(300, backend)
        with Session(backend, MemoryBudget.from_records(60)) as session:
            assert "0 queries" in session.calibration_report()
            session.query(Query.scan(collection).order_by())
            session.query(
                Query.scan(collection)
                .filter(lambda r: r[0] < 150, selectivity=0.5)
                .order_by()
            )
            report = session.calibration_report()
        assert "2 queries" in report
        assert "actual/est" in report
        assert "Filter" in report
        # A sort operator shows up with a parseable ratio.
        sort_lines = [
            line
            for line in report.splitlines()
            if line.split() and line.split()[0] in {"ExMS", "LaS", "HybS", "SegS"}
        ]
        assert sort_lines
        ratio = float(sort_lines[0].split()[-1])
        assert 0.1 < ratio < 10.0

    def test_sharded_queries_feed_the_report(self):
        shard_set = ShardSet.create(2)
        collection = make_sort_input(200, shard_set)
        with Session(shard_set, MemoryBudget.from_records(60)) as session:
            session.query(Query.scan(collection).order_by())
            report = session.calibration_report()
        assert "1 query" in report


class TestWorkloadValidation:
    def test_empty_workload_rejected(self, backend):
        session = Session(backend, MemoryBudget(1 << 20))
        with pytest.raises(ConfigurationError, match="at least one"):
            session.run_workload([])

    def test_workload_item_mapping_requires_query(self, backend):
        session = Session(backend, MemoryBudget(1 << 20))
        with pytest.raises(ConfigurationError, match="query"):
            session.run_workload([{"tag": "missing"}])

    def test_invalid_memory_bytes_rejected(self, backend):
        collection = make_sort_input(50, backend)
        session = Session(backend, MemoryBudget(1 << 20))
        with pytest.raises(ConfigurationError, match="memory_bytes"):
            session.submit(Query.scan(collection).order_by(), memory_bytes=0)

    @pytest.mark.parametrize("entry", ["submit", "query"])
    @pytest.mark.parametrize("kind", ["physical", "sharded"])
    def test_a_plan_is_rejected_at_submit(self, backend, kind, entry):
        collection = make_sort_input(100, backend)
        query = Query.scan(collection).order_by()
        budget = MemoryBudget.from_records(50)
        with Session(backend, budget) as session:
            if kind == "physical":
                plan = CostBasedPlanner(backend, budget).plan(query)
            else:
                plan = ShardedPlanner(session.shard_set, budget).plan(query)
            with pytest.raises(ConfigurationError, match="cannot plan"):
                getattr(session, entry)(plan)
            assert session.bufferpool.reserved_bytes == 0
            assert len(session.query(query).records) == 100

    def test_a_tuple_workload_item_is_rejected(self, backend):
        collection = make_sort_input(50, backend)
        query = Query.scan(collection).order_by()
        with Session(backend, MemoryBudget(1 << 20)) as session:
            with pytest.raises(ConfigurationError, match="cannot plan"):
                session.run_workload([(query, {"tag": "pair"})])
            assert session.bufferpool.reserved_bytes == 0
            assert len(session.query(query).records) == 50

    @pytest.mark.parametrize("policy", ["eager", "QUEUE", 3, object(), None])
    def test_unknown_admission_policy_rejected(self, backend, policy):
        query = Query.scan(make_sort_input(50, backend)).order_by()
        with Session(backend, MemoryBudget(1 << 20)) as session:
            with pytest.raises(ConfigurationError, match="admission policy"):
                session.submit(query, policy=policy)
            with pytest.raises(ConfigurationError, match="admission policy"):
                session.run_workload([query], policy=policy)
            assert session.bufferpool.reserved_bytes == 0


class TestReviewRegressions:
    def test_failed_workload_submission_releases_admitted_shares(
        self, backend
    ):
        collection = make_sort_input(200, backend)
        session = Session(backend, MemoryBudget.from_records(100))
        good = {
            "query": Query.scan(collection).order_by(),
            "memory_bytes": session.budget.nbytes,
            "tag": "good",
        }
        bad = {
            "query": Query.scan(collection).order_by(),
            "memory_bytes": -1,
            "tag": "bad",
        }
        with pytest.raises(ConfigurationError, match="memory_bytes"):
            session.run_workload([good, dict(good, tag="queued"), bad])
        # The bad item failed validation before any member was admitted,
        # so nothing holds the pool.
        assert session.bufferpool.holders() == {}
        result = session.query(Query.scan(collection).order_by())
        assert len(result.records) == 200
        session.close()

    def test_admitted_handles_cannot_be_cancelled(self, backend, gate):
        """Admission flips the status under the controller lock, so a
        handle whose share is carved can never be cancelled."""
        collection = make_sort_input(100, backend)
        with Session(backend, MemoryBudget.from_records(50)) as session:
            handle = session.submit(gated(gate, collection))
            assert handle.status is QueryStatus.RUNNING
            assert not handle.cancel()
            gate.set()
            assert len(handle.result().records) == 100
