"""Sorted runs from a sealed input's derivation memo cost and write what
streaming them does.

ExMS and SegS's mergesort segment cut the runs of a sealed settled input
once (``generate_input_runs`` through ``PersistentCollection.derived``):
every later sort is charged one ``charge_rescan`` of the range it reads
and writes the memoized runs, run by run.  The property below sorts the
same build twice: once as the library does and once through the streaming
kernel it replaces, kept here as the reference
(``generate_runs_replacement_selection`` over ``collection.scan(0,
stop)``).  It draws ExMS and SegS at x = 0.25, 0.5, 1 and the Eq. 4
optimum; every backend; MEMORY, MATERIALIZED and DEFERRED inputs (a
filter over a root) whose collection or root is sealed or not; a memo
made warm by an earlier sort of another algorithm or workspace, or left
stale by a sort of other records before a ``clear()`` and a refill of the
same length; 0-2,000 records over key domains from one value to a
million, shuffled, ascending or descending; and workspaces from one
record to one more than the input.  Both runs must give the same records
in the same order, the same ``runs_generated``, ``merge_passes``,
``input_scans`` and ``details``, the same device ``IOSnapshot`` delta, the
same stats, ``extra`` included, for every store, and the same replay
bookkeeping for a deferred input.
"""

from __future__ import annotations

import contextlib
import random
from functools import partial
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.context import OperatorContext
from repro.sorts import ExternalMergeSort, SegmentSort
from repro.sorts.external_mergesort import generate_runs_replacement_selection
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

ALGORITHMS = {
    "ExMS": ExternalMergeSort,
    "SegS[x=0.25]": partial(SegmentSort, write_intensity=0.25),
    "SegS[x=0.5]": partial(SegmentSort, write_intensity=0.5),
    "SegS[x=1]": partial(SegmentSort, write_intensity=1.0),
    "SegS[Eq. 4]": SegmentSort,
}


def streaming_input_runs(collection, runset, capacity_records, key_index, stop=None):
    """The streaming pass: replacement selection over the input's scan."""
    return generate_runs_replacement_selection(
        collection.scan(0, stop), runset, capacity_records, itemgetter(key_index)
    )


@contextlib.contextmanager
def streaming_runs():
    """Route ExMS and SegS through the streaming reference."""
    with mock.patch(
        "repro.sorts.external_mergesort.generate_input_runs", streaming_input_runs
    ), mock.patch(
        "repro.sorts.segment_sort.generate_input_runs", streaming_input_runs
    ):
        yield


def tagged_records(keys, tag=0):
    """Records of ``keys``, their load position (plus ``tag``) in attribute 1."""
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = tag + position
        records.append(tuple(fields))
    return records


def make_keys(size, domain, order, seed):
    rng = random.Random(seed)
    keys = [rng.randrange(domain) for _ in range(size)]
    if order == "ascending":
        keys.sort()
    elif order == "descending":
        keys.sort(reverse=True)
    return keys


def workspace_of(size, share):
    """A workspace between ``size // 64`` (at least one) and ``size + 1``
    records: at most ~64 runs, so an example stays cheap."""
    low = max(1, size // 64)
    return low + int(share * (size + 1 - low))


def sort_once(algorithm, backend, collection, workspace):
    return ALGORITHMS[algorithm](backend, MemoryBudget.from_records(workspace)).sort(
        collection
    )


def observe(
    streaming,
    algorithm,
    backend_name,
    kind,
    sealed,
    history,
    size,
    domain,
    order,
    seed,
    share,
    warm_algorithm,
    warm_share,
):
    """Sort a fresh build, after its history; returns what the sort did."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    keys = make_keys(size, domain, order, seed)
    workspace = workspace_of(size, share)
    warm_workspace = workspace_of(size, warm_share)
    status = (
        CollectionStatus.MEMORY if kind == "memory" else CollectionStatus.MATERIALIZED
    )
    root = PersistentCollection("T", None if kind == "memory" else backend, status=status)
    warm = partial(sort_once, warm_algorithm, backend)
    with streaming_runs() if streaming else contextlib.nullcontext():
        if history == "stale":
            # Other records of the same length: a memo that survived the
            # clear would hold runs under the very key the sort asks for.
            root.extend(tagged_records([key + 1 for key in keys], 10_000))
            root.seal()
            warm(root, warm_workspace).output.drop()
            root.clear()
        root.extend(tagged_records(keys))
        if sealed:
            root.seal()
        collection, context = root, None
        if kind == "deferred":
            context = OperatorContext(backend)
            context.register(root)
            collection = context.filter(root, lambda record: record[1] % 3 != 0, 2 / 3)
        if history == "warm":
            warm(collection, warm_workspace).output.drop()
        result = sort_once(algorithm, backend, collection, workspace)
    stores = [
        (
            store.label,
            store.logical_bytes,
            store.physical_bytes,
            store.append_calls,
            store.read_calls,
            store.truncate_calls,
            dict(store.extra),
        )
        for store in backend.stores()
    ]
    replays = None
    if context is not None:
        replays = (
            context.reconstruction_count(collection),
            context.last_reconstructed_records(collection),
        )
    return {
        "output": result.output.records,
        "runs_generated": result.runs_generated,
        "merge_passes": result.merge_passes,
        "input_scans": result.input_scans,
        "details": result.details,
        "io": result.io.as_dict(),
        "stores": stores,
        "replays": replays,
    }


shares = st.floats(min_value=0.0, max_value=1.0)

CASE = (
    "backend_name",
    "kind",
    "sealed",
    "history",
    "size",
    "domain",
    "order",
    "seed",
    "share",
    "warm_algorithm",
    "warm_share",
)


#: A warm memo from another stop (ExMS reads the whole input, a SegS
#: prefix less), from another workspace, and a stale one after a clear:
#: each fails a memo that ignores the stop, drops the workspace from its
#: key or survives ``clear()``.
@example(**dict(zip(CASE, ('pmfs', 'materialized', True, 'warm', 300, 50, 'shuffled', 0, 0.1, 'ExMS', 0.1))))
@example(**dict(zip(CASE, ('blocked_memory', 'memory', True, 'warm', 300, 1000000, 'shuffled', 1, 0.05, 'ExMS', 0.3))))
@example(**dict(zip(CASE, ('ramdisk', 'materialized', True, 'stale', 300, 4, 'shuffled', 2, 0.1, 'ExMS', 0.1))))
@example(**dict(zip(CASE, ('dynamic_array', 'materialized', True, 'stale', 257, 50, 'descending', 3, 0.0, 'SegS[x=0.5]', 0.0))))
@settings(max_examples=12, deadline=None)
@given(
    backend_name=st.sampled_from(sorted(BACKEND_REGISTRY)),
    kind=st.sampled_from(["memory", "materialized", "deferred"]),
    sealed=st.booleans(),
    history=st.sampled_from(["fresh", "warm", "stale"]),
    size=st.integers(min_value=0, max_value=2_000),
    domain=st.sampled_from([1, 4, 50, 10**6]),
    order=st.sampled_from(["shuffled", "ascending", "descending"]),
    seed=st.integers(min_value=0, max_value=2**16),
    share=shares,
    warm_algorithm=st.sampled_from(sorted(ALGORITHMS)),
    warm_share=shares,
)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_runs_from_the_memo_match_the_streaming_pass(algorithm, **case):
    args = (algorithm, *(case[name] for name in CASE))
    assert observe(False, *args) == observe(True, *args)
