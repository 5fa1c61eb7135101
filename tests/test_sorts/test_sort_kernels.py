"""Differential and stability tests for the sort kernels.

The run-generation kernel is compared, run for run, against a reference
two-heap replacement selection kept in this file; the merge and the
selection scans are checked for the tie-break orders the write-limited
sorts rely on.  Every input record carries its load position in
attribute 1, so records with equal keys are distinguishable.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem.backends import BlockedMemoryBackend
from repro.pmem.device import PersistentMemoryDevice
from repro.sorts import ExternalMergeSort, HybridSort, SelectionSort
from repro.sorts.external_mergesort import generate_runs_replacement_selection
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet, merge_streams
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import assert_sealed

KEY = WISCONSIN_SCHEMA.key


def tagged(key, tag):
    """A record with ``key`` whose attribute 1 holds a distinguishing tag."""
    fields = list(WISCONSIN_SCHEMA.make_record(key))
    fields[1] = tag
    return tuple(fields)


def tagged_records(keys):
    return [tagged(key, position) for position, key in enumerate(keys)]


def load(records):
    backend = BlockedMemoryBackend(PersistentMemoryDevice())
    collection = PersistentCollection(name="kernel-input", backend=backend)
    collection.extend(records)
    collection.seal()
    return backend, collection


def reference_runs(records, capacity):
    """Textbook two-heap replacement selection, one record at a time.

    The first ``capacity`` records fill the current heap.  Each further
    record emits the smallest current entry and joins the current heap if
    its key is not below the emitted one, the parked heap otherwise; when
    the current heap empties the run closes and the parked heap becomes
    current.  Entries are ``(key, arrival, record)``.
    """
    current, parked, runs, run = [], [], [], []
    for arrival, record in enumerate(records):
        entry = (KEY(record), arrival, record)
        if len(current) + len(parked) < capacity:
            heapq.heappush(current, entry)
            continue
        smallest = heapq.heappop(current)
        run.append(smallest[2])
        heapq.heappush(current if entry[0] >= smallest[0] else parked, entry)
        if not current:
            runs.append(run)
            run = []
            current, parked = parked, []
    while current:
        run.append(heapq.heappop(current)[2])
    if run:
        runs.append(run)
    if parked:
        runs.append([heapq.heappop(parked)[2] for _ in range(len(parked))])
    return runs


def reference_selection_region(records, capacity):
    """Hybrid sort's selection region: the ``capacity`` smallest by (key, position).

    Returns the retained records in ascending order and the displaced
    stream (each rejected record, or the maximum it evicted) in order.
    """
    retained, displaced = [], []
    for position, record in enumerate(records):
        entry = (KEY(record), position, record)
        if len(retained) < capacity:
            retained.append(entry)
        elif entry[:2] < max(retained)[:2]:
            largest = max(retained)
            retained.remove(largest)
            retained.append(entry)
            displaced.append(largest[2])
        else:
            displaced.append(record)
    return [record for _, _, record in sorted(retained)], displaced


def stable_by_key(records):
    return sorted(records, key=KEY)


#: Few distinct keys (heavy duplication) and a wide key range.
key_lists = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), max_size=80),
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=80),
)
capacities = st.integers(min_value=1, max_value=8)
#: The same lists as drawn, ascending, or descending: replacement
#: selection's single-run and capacity-sized-run extremes.
ordered_key_lists = st.one_of(
    key_lists,
    key_lists.map(sorted),
    key_lists.map(lambda keys: sorted(keys, reverse=True)),
)


class TestReplacementSelectionKernel:
    @settings(max_examples=150, deadline=None)
    @given(keys=ordered_key_lists, capacity=capacities)
    def test_runs_match_reference(self, keys, capacity):
        records = tagged_records(keys)
        backend, collection = load(records)
        runset = RunSet(backend, prefix="kernel")
        generate_runs_replacement_selection(
            collection.scan(), runset, capacity, KEY
        )
        assert [run.records for run in runset.runs] == reference_runs(
            records, capacity
        )
        for run in runset.runs:
            assert_sealed(run)

    @settings(max_examples=50, deadline=None)
    @given(keys=ordered_key_lists, capacity=capacities, data=st.data())
    def test_slice_runs_match_reference(self, keys, capacity, data):
        start = data.draw(st.integers(min_value=0, max_value=len(keys)))
        stop = data.draw(st.integers(min_value=start, max_value=len(keys)))
        records = tagged_records(keys)
        backend, collection = load(records)
        runset = RunSet(backend, prefix="kernel")
        generate_runs_replacement_selection(
            collection.scan(start, stop), runset, capacity, KEY
        )
        assert [run.records for run in runset.runs] == reference_runs(
            records[start:stop], capacity
        )

    def test_empty_input_generates_no_run(self):
        backend, collection = load([])
        runset = RunSet(backend, prefix="kernel")
        assert (
            generate_runs_replacement_selection(
                collection.scan(), runset, 4, KEY
            )
            == 0
        )

    def test_input_shorter_than_capacity_is_one_run(self):
        records = tagged_records([5, 1, 5, 3])
        backend, collection = load(records)
        runset = RunSet(backend, prefix="kernel")
        generate_runs_replacement_selection(
            collection.scan(), runset, 8, KEY
        )
        assert [run.records for run in runset.runs] == [stable_by_key(records)]

    def test_descending_input_gives_runs_of_capacity(self):
        # Every record after the fill is below the whole heap: it parks,
        # and the run closes after exactly ``capacity`` records.
        records = tagged_records(range(24, 0, -1))
        backend, collection = load(records)
        runset = RunSet(backend, prefix="kernel")
        generate_runs_replacement_selection(collection.scan(), runset, 4, KEY)
        assert [run.records for run in runset.runs] == [
            stable_by_key(records[start : start + 4]) for start in range(0, 24, 4)
        ]

    def test_ascending_input_is_one_run(self):
        records = tagged_records([1, 2, 2, 3, 5, 8, 8, 13, 21])
        backend, collection = load(records)
        runset = RunSet(backend, prefix="kernel")
        generate_runs_replacement_selection(collection.scan(), runset, 2, KEY)
        assert [run.records for run in runset.runs] == [records]


class TestMergeStability:
    def test_equal_keys_follow_stream_order_then_position(self):
        streams = [
            [tagged(1, "a0"), tagged(2, "a1"), tagged(2, "a2")],
            [tagged(1, "b0"), tagged(1, "b1"), tagged(2, "b2")],
            [],
            [tagged(0, "d0"), tagged(2, "d1")],
        ]
        merged = merge_streams([iter(stream) for stream in streams], KEY)
        assert [record[1] for record in merged] == [
            "d0", "a0", "b0", "b1", "a1", "a2", "b2", "d1",
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=4), max_size=12),
                    max_size=6))
    def test_merge_is_stable_sort_of_concatenation(self, stream_keys):
        streams, tag = [], 0
        for keys in stream_keys:
            stream = [tagged(key, tag + offset) for offset, key in enumerate(sorted(keys))]
            tag += len(keys)
            streams.append(stream)
        merged = list(merge_streams([iter(stream) for stream in streams], KEY))
        concatenated = [record for stream in streams for record in stream]
        assert merged == stable_by_key(concatenated)


def sort_with(algorithm_cls, records, workspace, **kwargs):
    backend, collection = load(records)
    algorithm = algorithm_cls(
        backend, MemoryBudget.from_records(workspace), **kwargs
    )
    return algorithm, algorithm.sort(collection)


class TestSortOrderAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(keys=key_lists, workspace=st.integers(min_value=1, max_value=8))
    def test_external_mergesort_merges_reference_runs_stably(self, keys, workspace):
        records = tagged_records(keys)
        _, result = sort_with(ExternalMergeSort, records, workspace)
        runs = reference_runs(records, workspace)
        assert result.runs_generated == len(runs)
        assert result.output.records == stable_by_key(
            [record for run in runs for record in run]
        )

    @settings(max_examples=60, deadline=None)
    @given(keys=key_lists, workspace=st.integers(min_value=2, max_value=8),
           intensity=st.sampled_from([0.2, 0.5, 0.8]))
    def test_hybrid_sort_matches_reference_regions(self, keys, workspace, intensity):
        records = tagged_records(keys)
        algorithm, result = sort_with(
            HybridSort, records, workspace, write_intensity=intensity
        )
        selection, replacement = algorithm._region_capacities()
        prefix, displaced = reference_selection_region(records, selection)
        runs = reference_runs(displaced, replacement)
        assert result.runs_generated == len(runs)
        assert result.output.records == prefix + stable_by_key(
            [record for run in runs for record in run]
        )

    @settings(max_examples=60, deadline=None)
    @given(keys=key_lists, workspace=st.integers(min_value=1, max_value=8))
    def test_selection_sort_is_stable_with_one_pass_per_workspace(self, keys, workspace):
        records = tagged_records(keys)
        _, result = sort_with(SelectionSort, records, workspace)
        assert result.output.records == stable_by_key(records)
        assert result.input_scans == -(-len(records) // workspace)
