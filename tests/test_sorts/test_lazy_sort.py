"""Lazy sort's intermediate inputs and its deferred-input cardinality.

Lazy sort materializes the unprocessed remainder of its input as an
intermediate store whenever the Eq. 5 read penalty catches up with the
write savings.  Those stores are scratch space: each must be dropped once
the next replaces it, and the last when the sort ends, whether it
succeeds or fails -- otherwise the next sort of the same input appends
into the stale store of the same name.

A deferred input's length is only its context's estimate; lazy sort must
sort every record the input really has, however wrong the declaration,
and must not create an intermediate store it has nothing to put in.
"""

import pytest

from repro.runtime.context import OperatorContext
from repro.sorts import LazySort
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import wisconsin_permutation

from tests.conftest import build_collection

#: 600 records under a 12-record workspace: lazy sort materializes twice.
RECORDS = 600
BUDGET = MemoryBudget.from_records(12)


def intermediate_stores(backend):
    return [store for store in backend.stores() if "las-intermediate" in store.label]


def test_intermediates_are_dropped_after_each_sort(any_backend):
    collection = build_collection(
        any_backend, wisconsin_permutation(RECORDS, seed=3), name="las-input"
    )
    device = any_backend.device
    allocated = device.allocated_bytes
    outputs = []
    for _ in range(3):
        result = LazySort(any_backend, BUDGET).sort(collection)
        assert result.details["intermediate_materializations"] >= 2
        assert result.output.keys() == sorted(collection.keys())
        assert intermediate_stores(any_backend) == []
        outputs.append(result.output.records)
        result.output.drop()
        # What the sort allocated beyond its output is released.
        assert device.allocated_bytes == allocated
    assert outputs[0] == outputs[1] == outputs[2]


def test_intermediates_are_dropped_when_the_sort_fails(backend):
    collection = build_collection(
        backend, wisconsin_permutation(RECORDS, seed=3), name="las-input"
    )
    calls = 0
    fail_at = None
    seen_intermediates = []

    def key_fn(record):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            seen_intermediates.extend(intermediate_stores(backend))
            raise RuntimeError("injected failure")
        return record[0]

    sort = LazySort(backend, BUDGET)
    sort.key_fn = key_fn
    sort.sort(collection)
    # Fail on the last key lookup of the same sort, once it has
    # materialized an intermediate.
    fail_at, calls = calls, 0
    with pytest.raises(RuntimeError, match="injected failure"):
        sort.sort(collection)
    assert seen_intermediates
    assert intermediate_stores(backend) == []


#: The deferred filter keeps a quarter of its 3,000-record root.
ROOT_RECORDS = 3_000
KEPT_RECORDS = 750


def keep(record):
    return record[0] % 4 == 1


@pytest.mark.parametrize("workspace", [100, 1_000])
@pytest.mark.parametrize("declared", [0.1, 3.0], ids=["under", "over"])
def test_deferred_input_is_sorted_whatever_its_declared_size(
    backend, monkeypatch, declared, workspace
):
    base = [
        WISCONSIN_SCHEMA.make_record(key)
        for key in wisconsin_permutation(ROOT_RECORDS, seed=5)
    ]
    root = PersistentCollection(name="root", backend=backend)
    root.extend(base)
    root.seal()
    context = OperatorContext(backend)
    context.register(root)
    deferred = context.declare(
        name="filtered", expected_records=int(KEPT_RECORDS * declared)
    )
    context.filter(
        root, keep, KEPT_RECORDS * declared / ROOT_RECORDS, output=deferred
    )
    dropped_sizes = {}
    drop_store = backend.drop_store

    def recording_drop(store):
        dropped_sizes[store.label] = store.logical_bytes
        drop_store(store)

    monkeypatch.setattr(backend, "drop_store", recording_drop)

    result = LazySort(backend, MemoryBudget.from_records(workspace)).sort(
        deferred
    )

    assert result.output.records == sorted(filter(keep, base))
    intermediates = {
        name: size
        for name, size in dropped_sizes.items()
        if "las-intermediate" in name
    }
    assert len(intermediates) == result.details["intermediate_materializations"]
    assert all(intermediates.values()), "an empty intermediate store was created"
    if workspace >= KEPT_RECORDS:
        # One pass holds the whole input.
        assert result.input_scans == 1
        assert not intermediates
