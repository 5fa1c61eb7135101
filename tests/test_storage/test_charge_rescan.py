"""A charge-only rescan costs exactly what a drained ``scan_blocks`` does.

Multi-pass operators (selection and lazy sort's later passes, NLJ's right
rescans, an exchange's read of a routed source) rescan records they
already hold.  ``PersistentCollection.charge_rescan(start, stop)`` charges
such a rescan without handing records out: one ``read_bulk`` for every
whole block of the range and one for its tail on a MATERIALIZED
collection, nothing on a MEMORY one, the operator context's replay on a
DEFERRED one.  The property below drains ``scan_blocks(start, stop)`` on
one build of a collection and calls ``charge_rescan(start, stop)`` on an
identical build, on every backend, and compares the device delta, the
charged store's stats and the replay bookkeeping.  A DROPPED collection
raises, as its scan does.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CollectionStateError
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.context import OperatorContext
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA


def build(backend, status, num_records):
    """``(collection, the store it charges, its context or None)``."""
    records = [WISCONSIN_SCHEMA.make_record(key) for key in range(num_records)]
    root = PersistentCollection(
        "root",
        backend,
        status=(
            CollectionStatus.MEMORY
            if status is CollectionStatus.MEMORY
            else CollectionStatus.MATERIALIZED
        ),
    )
    root.extend(records)
    root.seal()
    if status is not CollectionStatus.DEFERRED:
        return root, root.store, None
    context = OperatorContext(backend)
    deferred = context.filter(
        context.register(root), lambda record: record[0] % 3 != 1, 0.66
    )
    return deferred, root.store, context


def rescanned(backend_name, status, num_records, rescan):
    """What ``rescan(collection)`` charges on a fresh build: the device
    delta, the charged store's stats and the replay tallies."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection, store, context = build(backend, status, num_records)
    before = backend.device.snapshot()
    rescan(collection)
    stats = store and (
        store.logical_bytes,
        store.physical_bytes,
        store.append_calls,
        store.read_calls,
        dict(store.extra),
    )
    replays = context and (
        context.reconstruction_count(collection),
        context.last_reconstructed_records(collection),
    )
    return backend.device.snapshot() - before, stats, replays


@settings(max_examples=80, deadline=None)
@given(
    backend_name=st.sampled_from(sorted(BACKEND_REGISTRY)),
    status=st.sampled_from(
        [
            CollectionStatus.MEMORY,
            CollectionStatus.MATERIALIZED,
            CollectionStatus.DEFERRED,
        ]
    ),
    # 13 Wisconsin records per 1 KiB block and 64 blocks per charge batch:
    # ranges span several batches, partial tails and empty ranges.
    num_records=st.integers(min_value=0, max_value=2000),
    start=st.integers(min_value=0, max_value=2100),
    stop=st.one_of(st.none(), st.integers(min_value=0, max_value=2100)),
)
def test_charge_rescan_equals_a_drained_scan(
    backend_name, status, num_records, start, stop
):
    case = backend_name, status, num_records
    drained = rescanned(
        *case, lambda collection: deque(collection.scan_blocks(start, stop), maxlen=0)
    )
    charged = rescanned(*case, lambda collection: collection.charge_rescan(start, stop))
    assert charged == drained
    delta, _, replays = charged
    if status is CollectionStatus.MATERIALIZED:
        first, last, _ = slice(start, stop).indices(num_records)
        assert delta.read_calls == -(-max(0, last - first) // 13)  # blocks and tail
    elif status is CollectionStatus.MEMORY:
        assert delta.read_calls == 0
    else:
        assert replays[0] == 1


@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
def test_charge_rescan_of_a_dropped_collection_raises(backend_name):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection, _, _ = build(backend, CollectionStatus.MATERIALIZED, 50)
    collection.drop()
    with pytest.raises(CollectionStateError, match="dropped"):
        collection.charge_rescan()
    with pytest.raises(CollectionStateError, match="dropped"):
        collection.charge_rescan(10, 20)
