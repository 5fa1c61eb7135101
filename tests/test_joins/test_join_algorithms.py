"""Correctness and configuration tests for the six join algorithms."""

import pytest

from repro.exceptions import ConfigurationError
from repro.joins import (
    GraceJoin,
    HybridGraceNestedLoopsJoin,
    LazyHashJoin,
    NestedLoopsJoin,
    SegmentedGraceJoin,
    SimpleHashJoin,
)
from repro.hashing import partition_of
from repro.joins.common import build_hash_table, joined_schema, probe_into
from repro.query import JOIN_ALTERNATIVES
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import Schema, WISCONSIN_SCHEMA

from tests.conftest import build_collection

ALL_JOINS = [
    (NestedLoopsJoin, {}),
    (SimpleHashJoin, {}),
    (GraceJoin, {}),
    (HybridGraceNestedLoopsJoin, {"left_intensity": 0.5, "right_intensity": 0.5}),
    (HybridGraceNestedLoopsJoin, {"left_intensity": 0.0, "right_intensity": 0.0}),
    (HybridGraceNestedLoopsJoin, {"left_intensity": 1.0, "right_intensity": 1.0}),
    (HybridGraceNestedLoopsJoin, {"left_intensity": 0.2, "right_intensity": 0.8}),
    (HybridGraceNestedLoopsJoin, {}),  # heuristic intensities
    (SegmentedGraceJoin, {"write_intensity": 0.0}),
    (SegmentedGraceJoin, {"write_intensity": 0.5}),
    (SegmentedGraceJoin, {"write_intensity": 1.0}),
    (LazyHashJoin, {}),
]


def join_ids(param):
    cls, kwargs = param
    suffix = ",".join(f"{k}={v}" for k, v in kwargs.items())
    return f"{cls.__name__}({suffix})"


@pytest.fixture(params=ALL_JOINS, ids=[join_ids(p) for p in ALL_JOINS])
def join_case(request):
    return request.param


def reference_join(left, right):
    """Sorted multiset of concatenated matches, computed in plain Python."""
    by_key = {}
    for record in left.records:
        by_key.setdefault(record[0], []).append(record)
    matches = []
    for right_record in right.records:
        for left_record in by_key.get(right_record[0], []):
            matches.append(left_record + right_record)
    return sorted(matches)


class TestHelpers:
    def test_partition_of_is_stable_and_in_range(self):
        for key in range(1000):
            assert 0 <= partition_of(key, 7) < 7
            assert partition_of(key, 7) == partition_of(key, 7)

    def test_partition_of_validation(self):
        with pytest.raises(ConfigurationError):
            partition_of(5, 0)

    def test_build_and_probe(self):
        records = [WISCONSIN_SCHEMA.make_record(k) for k in [1, 2, 2, 3]]
        table = build_hash_table(records, WISCONSIN_SCHEMA.key)
        two, nine = WISCONSIN_SCHEMA.make_record(2), WISCONSIN_SCHEMA.make_record(9)
        output = []
        probe_into(output, table, [[two], [nine]], WISCONSIN_SCHEMA.key)
        assert output == [records[1] + two, records[2] + two]

    def test_joined_schema(self):
        combined = joined_schema(WISCONSIN_SCHEMA, WISCONSIN_SCHEMA)
        assert combined.record_bytes == 160

    def test_joined_schema_rejects_mixed_widths(self):
        with pytest.raises(ConfigurationError):
            joined_schema(WISCONSIN_SCHEMA, Schema(num_fields=4, field_bytes=4))


class TestCorrectness:
    def test_matches_reference_join(self, join_case, backend, small_join_inputs, join_budget):
        cls, kwargs = join_case
        left, right = small_join_inputs
        result = cls(backend, join_budget, **kwargs).join(left, right)
        assert sorted(result.output.records) == reference_join(left, right)

    def test_no_matches(self, join_case, backend):
        cls, kwargs = join_case
        left = build_collection(backend, range(0, 50), name=f"L-disjoint-{join_ids(join_case)}")
        right = build_collection(backend, range(100, 200), name=f"R-disjoint-{join_ids(join_case)}")
        budget = MemoryBudget.from_records(8)
        result = cls(backend, budget, **kwargs).join(left, right)
        assert result.output.records == []

    def test_empty_left_input(self, join_case, backend):
        cls, kwargs = join_case
        left = build_collection(backend, [], name=f"L-empty-{join_ids(join_case)}")
        right = build_collection(backend, range(20), name=f"R-nonempty-{join_ids(join_case)}")
        budget = MemoryBudget.from_records(8)
        result = cls(backend, budget, **kwargs).join(left, right)
        assert result.output.records == []

    def test_empty_right_input(self, join_case, backend):
        cls, kwargs = join_case
        left = build_collection(backend, range(20), name=f"L-nonempty-{join_ids(join_case)}")
        right = build_collection(backend, [], name=f"R-empty-{join_ids(join_case)}")
        budget = MemoryBudget.from_records(8)
        result = cls(backend, budget, **kwargs).join(left, right)
        assert result.output.records == []

    def test_skewed_keys(self, join_case, backend):
        """A single hot key matching many right records."""
        cls, kwargs = join_case
        left = build_collection(backend, [7] * 5 + list(range(10)), name=f"L-skew-{join_ids(join_case)}")
        right = build_collection(backend, [7] * 50 + list(range(5)), name=f"R-skew-{join_ids(join_case)}")
        budget = MemoryBudget.from_records(6)
        result = cls(backend, budget, **kwargs).join(left, right)
        assert sorted(result.output.records) == reference_join(left, right)

    def test_inputs_unchanged(self, join_case, backend, small_join_inputs, join_budget):
        cls, kwargs = join_case
        left, right = small_join_inputs
        left_before, right_before = list(left.records), list(right.records)
        cls(backend, join_budget, **kwargs).join(left, right)
        assert left.records == left_before
        assert right.records == right_before

    def test_works_on_every_backend(self, join_case, any_backend):
        cls, kwargs = join_case
        left = build_collection(any_backend, range(40), name="L")
        right = build_collection(any_backend, [k % 40 for k in range(400)], name="R")
        budget = MemoryBudget.from_records(8)
        result = cls(any_backend, budget, **kwargs).join(left, right)
        assert len(result.output.records) == 400


class TestResultMetadata:
    def test_io_snapshot_attached(self, backend, small_join_inputs, join_budget):
        left, right = small_join_inputs
        result = GraceJoin(backend, join_budget).join(left, right)
        assert result.io.total_ns > 0
        assert result.matches == len(result.output.records)

    def test_grace_reports_partitions(self, backend, small_join_inputs, join_budget):
        left, right = small_join_inputs
        result = GraceJoin(backend, join_budget).join(left, right)
        assert result.partitions >= 2
        assert result.iterations == result.partitions

    def test_hybrid_records_intensities(self, backend, small_join_inputs, join_budget):
        left, right = small_join_inputs
        result = HybridGraceNestedLoopsJoin(
            backend, join_budget, left_intensity=0.3, right_intensity=0.6
        ).join(left, right)
        assert result.details["left_intensity"] == pytest.approx(0.3)
        assert result.details["right_intensity"] == pytest.approx(0.6)

    def test_segmented_records_materialized_partitions(
        self, backend, small_join_inputs, join_budget
    ):
        left, right = small_join_inputs
        result = SegmentedGraceJoin(backend, join_budget, write_intensity=0.5).join(
            left, right
        )
        assert 0 < result.details["materialized_partitions"] <= result.partitions
        assert result.details["rescans"] == (
            result.partitions - result.details["materialized_partitions"]
        )

    def test_lazy_join_reports_materializations(self, backend, small_join_inputs):
        left, right = small_join_inputs
        budget = MemoryBudget.fraction_of(left, 0.05)
        result = LazyHashJoin(backend, budget).join(left, right)
        assert result.details["intermediate_materializations"] >= 0
        assert result.iterations == result.partitions


class TestConfiguration:
    def test_registry_contains_paper_abbreviations(self):
        assert set(JOIN_ALTERNATIVES) == {"NLJ", "HJ", "GJ", "HybJ", "SegJ", "LaJ"}

    def test_write_limited_flags(self):
        assert not GraceJoin.write_limited
        assert not SimpleHashJoin.write_limited
        assert not NestedLoopsJoin.write_limited
        assert HybridGraceNestedLoopsJoin.write_limited
        assert SegmentedGraceJoin.write_limited
        assert LazyHashJoin.write_limited

    def test_hybrid_intensity_validation(self, backend, join_budget):
        with pytest.raises(ConfigurationError):
            HybridGraceNestedLoopsJoin(backend, join_budget, left_intensity=1.5)

    def test_segmented_intensity_validation(self, backend, join_budget):
        with pytest.raises(ConfigurationError):
            SegmentedGraceJoin(backend, join_budget, write_intensity=-0.1)

    def test_estimated_costs_positive(self, backend, small_join_inputs, join_budget):
        left, right = small_join_inputs
        for cls, kwargs in ALL_JOINS:
            algorithm = cls(backend, join_budget, **kwargs)
            estimate = algorithm.estimated_cost_ns(left.num_buffers, right.num_buffers)
            assert estimate > 0

    def test_num_partitions_accounts_for_fudge_factor(self, backend, small_join_inputs):
        left, _ = small_join_inputs
        budget = MemoryBudget.from_records(50)
        join = GraceJoin(backend, budget)
        # A partition holds 50 / f = 41 records, not the full workspace.
        assert join.left_workspace_records == 50
        assert join.num_partitions_for(len(left)) == -(-len(left) // 41)
        assert join.num_partitions_for(41) == 1
        assert join.num_partitions_for(42) == 2


class TestWorkspaceRegistration:
    """Joins register their DRAM workspace against the bufferpool."""

    def test_exhausted_shared_pool_rejects_the_join(
        self, backend, small_join_inputs, join_budget
    ):
        from repro.exceptions import BufferpoolExhaustedError
        from repro.storage.bufferpool import Bufferpool

        left, right = small_join_inputs
        pool = Bufferpool(join_budget)
        pool.reserve(1, owner="other-operator")
        algorithm = NestedLoopsJoin(backend, join_budget, bufferpool=pool)
        with pytest.raises(BufferpoolExhaustedError):
            algorithm.join(left, right)
