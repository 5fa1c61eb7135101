"""Tests for the sort kernels: selection scans and replacement selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.sorts.heaps import replacement_selection_runs, select_smallest
from repro.storage.schema import WISCONSIN_SCHEMA

KEY = WISCONSIN_SCHEMA.key


def record(key, tag=0):
    """A record with ``key``; attribute 1 holds ``tag`` to tell ties apart."""
    fields = list(WISCONSIN_SCHEMA.make_record(key))
    fields[1] = tag
    return tuple(fields)


def records(keys):
    return [record(key, position) for position, key in enumerate(keys)]


def keys_of(rows):
    return [row[0] for row in rows]


def select(keys, capacity, after=None):
    displaced = []
    batch, threshold = select_smallest(
        records(keys), capacity, KEY, after=after, displaced=displaced.append
    )
    return batch, threshold, displaced


class TestSelectSmallest:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            select_smallest([], 0, KEY)

    def test_retains_smallest(self):
        batch, _, _ = select([9, 1, 7, 3, 8, 2], 3)
        assert keys_of(batch) == [1, 2, 3]

    def test_evicted_maximum_is_displaced(self):
        _, _, displaced = select([5, 3, 1], 2)
        assert keys_of(displaced) == [5]

    def test_larger_record_is_rejected_when_full(self):
        batch, _, displaced = select([1, 2, 9], 2)
        assert keys_of(displaced) == [9]
        assert keys_of(batch) == [1, 2]

    def test_threshold_is_largest_retained(self):
        assert select([], 3)[1] is None
        assert select([5, 2], 3)[1] == (5, 0)

    def test_duplicate_keys_ordered_by_position(self):
        batch, threshold, displaced = select([5, 5, 5], 2)
        assert threshold == (5, 1)
        assert [row[1] for row in batch] == [0, 1]
        assert [row[1] for row in displaced] == [2]

    def test_after_threshold_breaks_ties_by_position(self):
        # Key 5 at position 1 was selected by an earlier scan; only the
        # later duplicate (position 2) and larger keys remain eligible.
        batch, threshold, _ = select([3, 5, 5, 7], 2, after=(5, 1))
        assert [(row[0], row[1]) for row in batch] == [(5, 2), (7, 3)]
        assert threshold == (7, 3)

    def test_records_at_or_below_threshold_are_never_displaced(self):
        # (1, 0), (4, 2) and (2, 5) are at or below the threshold.
        _, _, displaced = select([1, 6, 4, 4, 9, 2, 4], 1, after=(4, 2))
        assert [(row[0], row[1]) for row in displaced] == [(6, 1), (9, 4), (4, 6)]

    def test_input_shorter_than_capacity(self):
        batch, threshold, displaced = select([4, 1], 5)
        assert keys_of(batch) == [1, 4]
        assert threshold == (4, 0)
        assert displaced == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60))
    def test_property_retains_k_smallest(self, keys):
        capacity = 5
        batch, _, displaced = select(keys, capacity)
        assert keys_of(batch) == sorted(keys)[: min(capacity, len(keys))]
        assert sorted(batch + displaced) == sorted(records(keys))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60),
           st.integers(min_value=1, max_value=8))
    def test_property_consecutive_scans_partition_input(self, keys, capacity):
        emitted, after = [], None
        while len(emitted) < len(keys):
            batch, after = select_smallest(records(keys), capacity, KEY, after=after)
            assert 0 < len(batch) <= capacity
            emitted.extend(batch)
        assert emitted == sorted(records(keys), key=lambda row: (row[0], row[1]))


class TestReplacementSelectionRuns:
    def runs(self, keys, capacity):
        return [keys_of(run) for run in replacement_selection_runs(
            records(keys), capacity, KEY
        )]

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            list(replacement_selection_runs([], 0, KEY))

    def test_empty_input_yields_no_run(self):
        assert self.runs([], 2) == []

    def test_fill_only_input_is_one_sorted_run(self):
        assert self.runs([3, 1], 2) == [[1, 3]]

    def test_runs_emit_ascending(self):
        assert self.runs([5, 2, 8, 9, 6, 7], 3) == [[2, 5, 6, 7, 8, 9]]

    def test_smaller_record_parks_for_next_run(self):
        # 1 < emitted 5: parked, and it closes the input as its own run.
        assert self.runs([5, 6, 1], 2) == [[5, 6], [1]]

    def test_run_closes_when_current_exhausted(self):
        assert self.runs([5, 1, 0], 1) == [[5], [1], [0]]

    def test_parked_records_follow_the_open_run(self):
        assert self.runs([4, 6, 1, 7, 8], 2) == [[4, 6, 7, 8], [1]]

    def test_equal_keys_keep_arrival_order(self):
        runs = list(replacement_selection_runs(records([2, 2, 1, 2]), 2, KEY))
        assert [[(row[0], row[1]) for row in run] for run in runs] == [
            [(2, 0), (2, 1), (2, 3)], [(1, 2)],
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=80),
           st.integers(min_value=1, max_value=8))
    def test_property_runs_are_sorted_maximal_and_cover_input(self, keys, capacity):
        runs = self.runs(keys, capacity)
        for run in runs:
            assert run == sorted(run)
        # Every run but the parked tail holds at least a full heap.
        for run in runs[:-1]:
            assert len(run) >= capacity
        assert sorted(key for run in runs for key in run) == sorted(keys)
