"""The Session facade: targets, placement, shared bufferpool."""

import pytest

from repro import (
    MemoryBudget,
    PersistentMemoryDevice,
    Query,
    QueryResult,
    Session,
    ShardSet,
)
from repro.bench.harness import make_environment
from repro.exceptions import ConfigurationError
from repro.shard import ShardedCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import make_sort_input

from tests.conftest import assert_sealed


class TestTargets:
    def test_backend_target_runs_single_device(self, backend):
        collection = make_sort_input(200, backend)
        session = Session(backend, MemoryBudget.fraction_of(collection, 0.10))
        result = session.query(Query.scan(collection).order_by())
        assert isinstance(result, QueryResult)
        assert result.records == sorted(collection.records)

    def test_shard_set_target_runs_sharded(self):
        shard_set = ShardSet.create(2)
        collection = make_sort_input(64, shard_set)
        session = Session(shard_set, MemoryBudget.from_records(8))
        result = session.query(Query.scan(collection).order_by())
        assert isinstance(result, QueryResult)
        assert [r[0] for r in result.records] == sorted(
            r[0] for r in collection.records
        )

    @pytest.mark.parametrize(
        "target",
        [42, "pmfs", PersistentMemoryDevice()],
        ids=["int", "backend-name", "device"],
    )
    def test_unsupported_target_rejected(self, target):
        with pytest.raises(ConfigurationError, match="Session"):
            Session(target, MemoryBudget.from_records(8))

    def test_invalid_boundary_policy_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="boundary policy"):
            Session(backend, MemoryBudget(1 << 20), boundary_policy="eager")


class TestRouting:
    def test_sharded_session_rejects_unsharded_query(self, backend):
        shard_set = ShardSet.create(2)
        session = Session(shard_set, MemoryBudget.from_records(8))
        plain = make_sort_input(32, backend)
        with pytest.raises(ConfigurationError, match="ShardSet"):
            session.query(Query.scan(plain).order_by())

    def test_mismatched_shard_set_rejected(self):
        set_a = ShardSet.create(2)
        set_b = ShardSet.create(2)
        collection = make_sort_input(32, set_b)
        session = Session(set_a, MemoryBudget.from_records(8))
        with pytest.raises(ConfigurationError, match="different shard set"):
            session.query(Query.scan(collection).order_by())

    def test_materialize_result_rejected_on_sharded_queries(self):
        shard_set = ShardSet.create(2)
        collection = make_sort_input(32, shard_set)
        session = Session(
            shard_set, MemoryBudget.from_records(8), materialize_result=True
        )
        with pytest.raises(ConfigurationError, match="materialize_result"):
            session.query(Query.scan(collection).order_by())

    def test_sharded_input_runs_a_sharded_plan(self, backend):
        shard_set = ShardSet.create(2)
        sharded = make_sort_input(32, shard_set)
        session = Session(shard_set, MemoryBudget.from_records(8))
        result = session.query(Query.scan(sharded).order_by())
        assert result.plan.num_shards == 2
        assert "sharded physical plan" in result.explain()


class TestOneResultType:
    def test_one_shard_result_keeps_the_fragment_output(self, backend):
        collection = make_sort_input(120, backend)
        session = Session(
            backend, MemoryBudget.fraction_of(collection, 0.10), materialize_result=True
        )
        result = session.query(Query.scan(collection).order_by())
        (fragment_result,) = result.fragment_results[0]
        assert result.output is fragment_result.output
        assert result.output.is_materialized
        assert result.critical_path_ns == result.io.total_ns
        assert result.explain() == fragment_result.explain()


class TestSharedBufferpool:
    def test_queries_share_and_release_the_session_pool(self, backend):
        collection = make_sort_input(200, backend)
        budget = MemoryBudget.fraction_of(collection, 0.10)
        session = Session(backend, budget)
        pool = session.bufferpool
        for _ in range(3):
            session.query(Query.scan(collection).order_by())
            assert session.bufferpool is pool
            assert pool.reserved_bytes == 0

    def test_sharded_queries_share_the_session_pool(self):
        shard_set = ShardSet.create(2)
        collection = make_sort_input(64, shard_set)
        budget = MemoryBudget.from_records(16)
        session = Session(shard_set, budget)
        session.query(Query.scan(collection).order_by())
        assert session.bufferpool.reserved_bytes == 0


class TestCreateCollection:
    def test_sharded_session_points_to_sharded_collection(self):
        shard_set = ShardSet.create(2)
        session = Session(shard_set, MemoryBudget.from_records(8))
        with pytest.raises(ConfigurationError, match="ShardedCollection"):
            session.create_collection("t", [])

    def test_collection_lands_on_the_session_backend(self):
        env = make_environment()
        session = Session(env.backend, MemoryBudget.from_records(8))
        collection = session.create_collection(
            "orders",
            records=[WISCONSIN_SCHEMA.make_record(k) for k in range(8)],
        )
        assert collection.backend is env.backend
        assert_sealed(collection)
        assert len(collection) == 8
