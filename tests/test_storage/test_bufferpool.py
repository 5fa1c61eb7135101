"""Tests for memory budgets and the bufferpool."""

import pytest

from repro.exceptions import BufferpoolExhaustedError, ConfigurationError
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection


class TestMemoryBudget:
    def test_from_records(self):
        budget = MemoryBudget.from_records(100)
        assert budget.nbytes == 8000
        assert budget.record_capacity() == 100

    def test_fraction_of_collection(self, backend):
        collection = build_collection(backend, range(1000), name="frac")
        budget = MemoryBudget.fraction_of(collection, 0.10)
        assert budget.nbytes == pytest.approx(collection.nbytes * 0.10)

    def test_fraction_of_enforces_minimum(self, backend):
        collection = build_collection(backend, range(10), name="tiny-frac")
        budget = MemoryBudget.fraction_of(collection, 0.01)
        assert budget.record_capacity() == 4

    def test_fraction_above_one_rejected(self, backend):
        collection = build_collection(backend, range(100), name="over-frac")
        with pytest.raises(ConfigurationError, match="exceeds the input"):
            MemoryBudget.fraction_of(collection, 1.5)

    def test_fraction_of_exactly_one_is_fine(self, backend):
        collection = build_collection(backend, range(100), name="full-frac")
        budget = MemoryBudget.fraction_of(collection, 1.0)
        assert budget.nbytes == collection.nbytes

    def test_buffers_is_cachelines(self):
        budget = MemoryBudget(6400)
        assert budget.buffers == pytest.approx(100.0)

    def test_blocks(self):
        assert MemoryBudget(4096).blocks == 4
        assert MemoryBudget(100).blocks == 1

    def test_record_capacity_never_zero(self):
        assert MemoryBudget(10).record_capacity() == 1

    def test_merge_fan_in_uses_buffers(self):
        budget = MemoryBudget(64 * 10)
        assert budget.merge_fan_in() == 9

    def test_merge_fan_in_floor_of_two(self):
        assert MemoryBudget(64).merge_fan_in() == 2

    @pytest.mark.parametrize("nbytes", [0, -10])
    def test_non_positive_budget_rejected(self, nbytes):
        with pytest.raises(ConfigurationError):
            MemoryBudget(nbytes)

    def test_negative_record_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget.from_records(0, WISCONSIN_SCHEMA)


class TestBufferpool:
    def test_reserve_within_budget(self):
        pool = Bufferpool(MemoryBudget(1000))
        pool.reserve(600, owner="sort")
        assert pool.reserved_bytes == 600
        assert pool.available_bytes == 400

    def test_over_reservation_raises(self):
        pool = Bufferpool(MemoryBudget(1000))
        pool.reserve(600, owner="sort")
        with pytest.raises(BufferpoolExhaustedError):
            pool.reserve(500, owner="join")

    def test_release_frees_space(self):
        pool = Bufferpool(MemoryBudget(1000))
        pool.reserve(600, owner="sort")
        pool.release("sort")
        pool.reserve(1000, owner="join")
        assert pool.available_bytes == 0

    def test_release_unknown_owner_is_noop(self):
        pool = Bufferpool(MemoryBudget(1000))
        pool.release("nobody")
        assert pool.reserved_bytes == 0

    def test_workspace_context_manager(self):
        pool = Bufferpool(MemoryBudget(1000))
        with pool.workspace(800, owner="sort"):
            assert pool.available_bytes == 200
        assert pool.available_bytes == 1000

    def test_workspace_releases_on_error(self):
        pool = Bufferpool(MemoryBudget(1000))
        with pytest.raises(RuntimeError):
            with pool.workspace(800, owner="sort"):
                raise RuntimeError("boom")
        assert pool.available_bytes == 1000

    def test_negative_reservation_rejected(self):
        pool = Bufferpool(MemoryBudget(1000))
        with pytest.raises(ConfigurationError):
            pool.reserve(-1, owner="sort")

    def test_release_exact_amount(self):
        pool = Bufferpool(MemoryBudget(1000))
        pool.reserve(600, owner="sort")
        pool.release("sort", 200)
        assert pool.reserved_bytes == 400
        pool.release("sort", 400)
        assert pool.reserved_bytes == 0

    def test_over_release_rejected(self):
        pool = Bufferpool(MemoryBudget(1000))
        pool.reserve(300, owner="sort")
        with pytest.raises(ConfigurationError):
            pool.release("sort", 400)
        with pytest.raises(ConfigurationError):
            pool.release("sort", -1)

    def test_nested_same_owner_workspaces_keep_outer_reservation(self):
        # Regression: release(owner) used to pop *all* bytes held by the
        # owner, so an inner workspace block dropped the outer reservation
        # to zero instead of back to 4000.
        pool = Bufferpool(MemoryBudget(10_000))
        with pool.workspace(4_000, owner="sort"):
            with pool.workspace(2_500, owner="sort"):
                assert pool.reserved_bytes == 6_500
            assert pool.reserved_bytes == 4_000
        assert pool.reserved_bytes == 0

    def test_repeated_same_owner_reservations_release_exactly(self):
        pool = Bufferpool(MemoryBudget(10_000))
        pool.reserve(4_000, owner="sort")
        with pool.workspace(1_000, owner="sort"):
            assert pool.reserved_bytes == 5_000
        assert pool.reserved_bytes == 4_000


class TestBufferpoolShares:
    """Parent/child accounting for concurrent shard shares."""

    def test_share_reserves_in_parent(self):
        parent = Bufferpool(MemoryBudget(1_000))
        child = parent.share(nbytes=250, owner="shard0")
        assert child.budget.nbytes == 250
        assert parent.reserved_bytes == 250
        child.close()
        assert parent.reserved_bytes == 0

    def test_shares_cannot_jointly_exceed_parent_budget(self):
        # The satellite regression: N concurrent fragments each took a
        # "fraction of the budget" without anyone accounting for the sum,
        # so shares could jointly over-reserve DRAM.  Carving shares out
        # of the parent makes the over-reservation fail up front.
        parent = Bufferpool(MemoryBudget(1_000))
        parent.share(nbytes=600, owner="shard0")
        with pytest.raises(BufferpoolExhaustedError):
            parent.share(nbytes=600, owner="shard1")

    def test_even_shares_fill_the_parent_exactly(self):
        parent = Bufferpool(MemoryBudget(1_000))
        shares = [
            parent.share(nbytes=250, owner=f"shard{index}") for index in range(4)
        ]
        assert parent.available_bytes == 0
        with pytest.raises(BufferpoolExhaustedError):
            parent.share(nbytes=1, owner="extra")
        for share in shares:
            share.close()
        assert parent.available_bytes == 1_000

    def test_child_enforces_its_own_budget(self):
        parent = Bufferpool(MemoryBudget(1_000))
        child = parent.share(nbytes=400, owner="shard0")
        child.reserve(300, owner="sort")
        with pytest.raises(BufferpoolExhaustedError):
            child.reserve(200, owner="join")
        child.release("sort")
        child.close()

    def test_close_with_outstanding_reservation_raises(self):
        parent = Bufferpool(MemoryBudget(1_000))
        child = parent.share(nbytes=400, owner="shard0")
        child.reserve(100, owner="sort")
        with pytest.raises(ConfigurationError):
            child.close()
        child.release("sort")
        child.close()

    def test_close_is_idempotent_and_blocks_reuse(self):
        parent = Bufferpool(MemoryBudget(1_000))
        child = parent.share(nbytes=400, owner="shard0")
        child.close()
        child.close()
        assert parent.reserved_bytes == 0
        with pytest.raises(ConfigurationError):
            child.reserve(10, owner="sort")

    def test_share_context_manager(self):
        parent = Bufferpool(MemoryBudget(1_000))
        with parent.share(nbytes=500, owner="shard0") as child:
            child.reserve(100, owner="sort")
            child.release("sort")
            assert parent.reserved_bytes == 500
        assert parent.reserved_bytes == 0

    @pytest.mark.parametrize("nbytes", [0, -100])
    def test_share_size_must_be_positive(self, nbytes):
        parent = Bufferpool(MemoryBudget(1_000))
        with pytest.raises(ConfigurationError):
            parent.share(nbytes=nbytes, owner="shard0")
        assert parent.reserved_bytes == 0

    def test_concurrent_reservations_are_consistent(self):
        import threading

        pool = Bufferpool(MemoryBudget(100_000))
        errors = []

        def worker(owner):
            try:
                for _ in range(200):
                    pool.reserve(100, owner=owner)
                    pool.release(owner, 100)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(f"w{index}",)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.reserved_bytes == 0


class TestShareContention:
    """share()/close() racing from many threads must never over-reserve."""

    def test_racing_shares_never_exceed_the_parent_budget(self):
        import threading

        budget = MemoryBudget(100_000)
        parent = Bufferpool(budget)
        share_bytes = 30_000  # only 3 of 12 racers can fit at once
        barrier = threading.Barrier(12)
        admitted, rejected, errors = [], [], []
        lock = threading.Lock()

        def racer(index):
            barrier.wait()
            try:
                child = parent.share(nbytes=share_bytes, owner=f"racer{index}")
            except BufferpoolExhaustedError as error:
                with lock:
                    rejected.append(str(error))
                return
            except Exception as error:  # pragma: no cover - failure path
                with lock:
                    errors.append(error)
                return
            with lock:
                admitted.append(child)
                # The invariant under the race: live shares never jointly
                # exceed the parent budget.
                assert parent.reserved_bytes <= budget.nbytes

        threads = [
            threading.Thread(target=racer, args=(index,)) for index in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(admitted) == 3
        assert len(rejected) == 9
        assert parent.reserved_bytes == 3 * share_bytes
        for child in admitted:
            child.close()
        assert parent.reserved_bytes == 0

    def test_exhaustion_message_carries_the_owner_breakdown(self):
        parent = Bufferpool(MemoryBudget(10_000))
        first = parent.share(nbytes=6_000, owner="query-a")
        second = parent.share(nbytes=3_000, owner="query-b")
        with pytest.raises(BufferpoolExhaustedError) as excinfo:
            parent.share(nbytes=4_000, owner="query-c")
        message = str(excinfo.value)
        assert "query-a=6000" in message
        assert "query-b=3000" in message
        assert "only 1000 of 10000" in message
        second.close()
        first.close()

    def test_racing_share_close_cycles_stay_balanced(self):
        import threading

        parent = Bufferpool(MemoryBudget(50_000))
        errors = []

        def churn(index):
            try:
                for _ in range(50):
                    try:
                        child = parent.share(
                            nbytes=10_000, owner=f"churn{index}"
                        )
                    except BufferpoolExhaustedError:
                        continue
                    child.reserve(5_000, owner="workspace")
                    child.release("workspace")
                    child.close()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=churn, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert parent.reserved_bytes == 0
