"""A sealed input's sorted runs are cut once, and only while it cannot change.

ExMS and SegS's mergesort segment take the replacement-selection runs of
a sealed settled input from its derivation memo
(``PersistentCollection.derived``), keyed by the clipped stop, the
workspace and the key attribute; bucketings share the memo and its bound
(``DERIVATION_MEMO_ENTRIES``), and ``clear()`` and ``drop()`` empty it.  An
unsealed or DEFERRED input streams through the kernel on every sort.  A
spy on ``replacement_selection_runs``, in the memo's derivation and on the
streaming path, shows which sorts cut runs.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import hashing
from repro.joins import GraceJoin
from repro.runtime.context import OperatorContext
from repro.sorts import ExternalMergeSort, SegmentSort, heaps
from repro.sorts import external_mergesort
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import DERIVATION_MEMO_ENTRIES, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection

WORKSPACE = MemoryBudget.from_records(40)
KEYS = [(key * 7919) % 1_000 for key in range(1_000)]


@pytest.fixture
def cuts(monkeypatch):
    """The capacity of every replacement-selection pass, in call order."""
    calls = []
    kernel = heaps.replacement_selection_runs

    def spy(records, capacity, key):
        calls.append(capacity)
        return kernel(records, capacity, key)

    monkeypatch.setattr(heaps, "replacement_selection_runs", spy)
    monkeypatch.setattr(external_mergesort, "replacement_selection_runs", spy)
    return calls


def unsealed(backend, keys, name="T"):
    collection = PersistentCollection(name, backend)
    collection.extend(WISCONSIN_SCHEMA.make_record(key) for key in keys)
    return collection


def memo_keys(collection):
    """The memo's keys in LRU order, as ``(derivation name, args)``."""
    return [(derive.__name__, args) for derive, args in collection._derivations]


def test_two_segment_sorts_of_a_sealed_input_cut_its_runs_once(backend, cuts):
    collection = build_collection(backend, KEYS, "T")
    first = SegmentSort(backend, WORKSPACE, write_intensity=0.5).sort(collection)
    second = SegmentSort(backend, WORKSPACE, write_intensity=0.5).sort(collection)
    assert first.runs_generated > 1
    assert first.output.records == second.output.records
    assert first.io == second.io
    assert cuts == [40]
    assert memo_keys(collection) == [("sorted_runs", (500, 40, 0))]


def test_exms_and_a_whole_segment_sort_share_one_entry(backend, cuts):
    """The key is the schema's key attribute, not a sort's key extractor,
    and a stop past the input is clipped to it."""
    collection = build_collection(backend, KEYS, "T")
    ExternalMergeSort(backend, WORKSPACE).sort(collection)
    SegmentSort(backend, WORKSPACE, write_intensity=1.0).sort(collection)
    assert cuts == [40]
    assert memo_keys(collection) == [("sorted_runs", (1_000, 40, 0))]
    # Another workspace is another entry.
    ExternalMergeSort(backend, MemoryBudget.from_records(41)).sort(collection)
    assert cuts == [40, 41]


def test_an_unsealed_input_cuts_its_runs_on_every_sort(backend, cuts):
    collection = unsealed(backend, KEYS)
    sort = ExternalMergeSort(backend, WORKSPACE)
    first, second = sort.sort(collection), sort.sort(collection)
    assert first.output.records == second.output.records
    assert cuts == [40, 40]
    assert collection._derivations is None


def test_a_deferred_input_cuts_its_runs_on_every_sort(backend, cuts):
    root = build_collection(backend, KEYS, "T")
    context = OperatorContext(backend)
    context.register(root)
    deferred = context.filter(root, lambda record: record[0] % 2 == 0, 0.5)
    sort = SegmentSort(backend, WORKSPACE, write_intensity=0.5)
    first, second = sort.sort(deferred), sort.sort(deferred)
    assert first.output.records == second.output.records
    assert cuts == [40, 40]
    assert root._derivations is None


def test_clear_and_drop_empty_the_memo(backend, cuts):
    collection = build_collection(backend, KEYS, "T")
    sort = ExternalMergeSort(backend, WORKSPACE)
    sort.sort(collection)
    assert collection._derivations
    collection.clear()
    assert collection._derivations is None
    collection.extend(WISCONSIN_SCHEMA.make_record(key + 1) for key in KEYS)
    collection.seal()
    # The same key as before the clear, derived afresh from the new records.
    refilled = sort.sort(collection)
    assert [record[0] for record in refilled.output.records] == sorted(
        key + 1 for key in KEYS
    )
    assert cuts == [40, 40]
    collection.drop()
    assert collection._derivations is None


def first_keys(records, count, key_index):
    """A test-local derivation taking a bucketing's arguments."""
    return [record[key_index] for record in records[:count]]


def test_runs_and_buckets_share_one_bound_without_colliding(backend, cuts):
    collection = build_collection(backend, KEYS, "T")
    ExternalMergeSort(backend, WORKSPACE).sort(collection)
    join = GraceJoin(backend, MemoryBudget.from_records(60))
    partitions = join.join(collection, collection).partitions
    assert memo_keys(collection) == [
        ("sorted_runs", (1_000, 40, 0)),
        ("buckets_of", (partitions, 0)),
    ]
    # Two derivations asked for with the same arguments keep an entry each.
    assert collection.derived(first_keys, 3, 0) == KEYS[:3]
    assert collection.partitioned(3, 0) == hashing.buckets_of(collection.records, 3, 0)
    assert memo_keys(collection)[-2:] == [
        ("first_keys", (3, 0)),
        ("buckets_of", (3, 0)),
    ]
    # The bound holds across kinds: one more bucketing evicts the runs, the
    # least recently used entry, and the next sort cuts them again and
    # evicts the oldest bucketing in turn.
    assert len(collection._derivations) == DERIVATION_MEMO_ENTRIES
    collection.partitioned(5, 0)
    assert memo_keys(collection) == [
        ("buckets_of", (partitions, 0)),
        ("first_keys", (3, 0)),
        ("buckets_of", (3, 0)),
        ("buckets_of", (5, 0)),
    ]
    assert cuts == [40]
    ExternalMergeSort(backend, WORKSPACE).sort(collection)
    assert cuts == [40, 40]
    assert memo_keys(collection) == [
        ("first_keys", (3, 0)),
        ("buckets_of", (3, 0)),
        ("buckets_of", (5, 0)),
        ("sorted_runs", (1_000, 40, 0)),
    ]


def test_threads_sharing_a_sealed_input_derive_each_result_once(backend):
    """A planner thread and a worker read one collection's memo at once."""
    collection = build_collection(backend, KEYS, "T")
    derivations = []

    def counted(records, count, key_index):
        derivations.append((count, key_index))
        keys = [record[key_index] for record in records]
        return sorted(keys[:count])

    failures = []
    start = threading.Barrier(8)

    def ask(offset):
        try:
            start.wait(timeout=30)
            for step in range(60):
                count = 100 * (1 + (offset + step) % DERIVATION_MEMO_ENTRIES)
                assert collection.derived(counted, count, 0) == sorted(KEYS[:count])
        except Exception as error:  # reported below, in the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # As many keys as the bound: each was derived exactly once.
    assert sorted(derivations) == [
        (100 * (1 + index), 0) for index in range(DERIVATION_MEMO_ENTRIES)
    ]
