"""Differential tests for the ranked selection kernel.

Lazy sort's passes, materializing ones and those over a DEFERRED input
included, and the selection passes behind selection sort and segment
sort's selection segment are served by
:func:`~repro.sorts.heaps.ranked_passes`: the source is ranked once, every
pass drains an identical rescan to pay for itself, and a materializing
pass takes its displacement order from the ranking.  This file keeps
test-local copies of the per-pass loops the kernel replaced -- one full
``select_smallest`` scan per pass -- and asserts that both produce the
same records in the same order, the same ``IOSnapshot`` delta, the same
``input_scans`` and ``details``, the same per-store stats (lazy sort's
intermediates aside: the reference leaves them behind) and, for deferred
inputs, the same replay bookkeeping.  Lazy sort is also diffed over
deferred inputs declared at none, half and twice their size.  Every input
record carries its load position in attribute 1, so equal keys are
distinguishable.

A structural guard counts rankings and checks that no sort module imports
``select_smallest``, so the speedup cannot silently regress to one scan
per pass.
"""

import contextlib
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sorts.lazy_sort as lazy_sort_module
import repro.sorts.segment_sort as segment_sort_module
import repro.sorts.selection_sort as selection_sort_module
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.pmem.latency import LatencyModel
from repro.runtime.context import OperatorContext
from repro.sorts import LazySort, SegmentSort, SelectionSort, cost
from repro.sorts.base import SortResult
from repro.sorts.heaps import ranked_passes, select_smallest
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

KEY = WISCONSIN_SCHEMA.key


# --------------------------------------------------------------------- #
# The reference: one full selection scan per pass.
# --------------------------------------------------------------------- #
def reference_selection_passes(
    collection, workspace_records, key_fn, start=0, stop=None
):
    """``selection_passes`` as a ``select_smallest`` scan per pass.

    Every pass is one full scan of the slice; the first one also counts
    it, so no scan is spent on counting alone.
    """
    emitted, total, threshold = 0, None, None
    while total is None or emitted < total:
        records = list(collection.scan(start, stop))
        total = len(records)
        batch, threshold = select_smallest(
            records, workspace_records, key_fn, after=threshold
        )
        if not batch:
            return
        emitted += len(batch)
        yield batch


class ReferenceLazySort(LazySort):
    """Lazy sort's loop with a ``select_smallest`` scan per pass.

    Like the loop the kernel replaced, it never drops its intermediates.
    Like the operator, it counts a deferred input on its first pass, which
    sees every record: the records it keeps plus the ones it displaces.
    Until then only the materialization decision reads the estimate.
    """

    def _execute(self, output, collection):
        total_records = None if collection.is_deferred else len(collection)
        lam = self.backend.device.write_read_ratio
        source = collection
        emitted = 0
        iteration = 1
        scans = 0
        intermediates = 0
        materialization_points = []
        threshold = None
        while total_records is None or emitted < total_records:
            remaining = (
                collection.estimated_records
                if total_records is None
                else total_records - emitted
            )
            materialization_iteration = max(
                1,
                cost.lazy_sort_materialization_iteration(
                    max(source.num_buffers, 1.0), max(self.memory_buffers, 2.0), lam
                ),
            )
            materialize = (
                iteration >= materialization_iteration
                and remaining > self.workspace_records
            )
            counting = total_records is None
            spill = []
            batch, threshold = select_smallest(
                source.scan(),
                self.workspace_records,
                self.key_fn,
                after=threshold,
                displaced=spill.append if materialize or counting else None,
            )
            if counting:
                total_records = len(batch) + len(spill)
            intermediate = None
            # A mis-declared deferred input may leave nothing to spill.
            if materialize and spill:
                intermediates += 1
                intermediate = PersistentCollection(
                    name=f"{collection.name}-las-intermediate-{intermediates}",
                    backend=self.backend,
                    schema=self.schema,
                    status=CollectionStatus.MATERIALIZED,
                )
                intermediate.extend(spill)
            scans += 1
            output.extend(batch)
            emitted += len(batch)
            if not batch:
                break
            if intermediate is not None:
                intermediate.seal()
                materialization_points.append(emitted)
                source = intermediate
                threshold = None
                iteration = 1
            else:
                iteration += 1
        output.seal()
        return SortResult(
            output=output,
            io=None,
            runs_generated=0,
            merge_passes=0,
            input_scans=scans,
            details={
                "intermediate_materializations": intermediates,
                "materialization_points": materialization_points,
            },
        )


# --------------------------------------------------------------------- #
# Inputs and observations.
# --------------------------------------------------------------------- #
def build(backend_name, kind, keys, lam, declared=1.0):
    """A fresh device and backend with a sort input of the given kind.

    A deferred input is a filter over a materialized root that drops every
    third record, declared at ``declared`` times its size.
    """
    device = PersistentMemoryDevice(
        latency=LatencyModel(read_ns=10.0, write_ns=10.0 * lam)
    )
    backend = make_backend(backend_name, device)
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = position
        records.append(tuple(fields))
    if kind == "memory":
        collection = PersistentCollection(
            name="input", status=CollectionStatus.MEMORY
        )
    else:
        collection = PersistentCollection(name="input", backend=backend)
    collection.extend(records)
    collection.seal()
    context = None
    if kind == "deferred":
        context = OperatorContext(backend)
        context.register(collection)
        kept = sum(1 for position in range(len(keys)) if position % 3)
        deferred = context.declare(
            name="filtered", expected_records=int(kept * declared)
        )
        collection = context.filter(
            collection, lambda record: record[1] % 3 != 0, 2 / 3, output=deferred
        )
    return device, backend, context, collection


def observe(
    sort_cls, kwargs, backend_name, kind, keys, lam, workspace, declared=1.0
):
    device, backend, context, collection = build(
        backend_name, kind, keys, lam, declared
    )
    result = sort_cls(
        backend, MemoryBudget.from_records(workspace), **kwargs
    ).sort(collection)
    stores = [
        (
            stats.label,
            stats.logical_bytes,
            stats.physical_bytes,
            stats.append_calls,
            stats.read_calls,
            stats.truncate_calls,
            stats.extra,
        )
        for stats in backend.stores()
        if "las-intermediate" not in stats.label
    ]
    replays = None
    if context is not None:
        replays = (
            context.reconstruction_count(collection),
            context.last_reconstructed_records(collection),
        )
    return {
        "output": result.output.records,
        "io": result.io.as_dict(),
        "input_scans": result.input_scans,
        "runs_generated": result.runs_generated,
        "merge_passes": result.merge_passes,
        "details": result.details,
        "stores": stores,
        "replays": replays,
    }


@contextlib.contextmanager
def reference_passes():
    """Route selection sort and segment sort through the reference passes."""
    with mock.patch.object(
        selection_sort_module, "selection_passes", reference_selection_passes
    ), mock.patch.object(
        segment_sort_module, "selection_passes", reference_selection_passes
    ):
        yield


#: Few distinct keys (heavy duplication) and a wide key range.
key_lists = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), max_size=120),
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=120),
)
case = dict(
    backend_name=st.sampled_from(["blocked_memory", "pmfs"]),
    kind=st.sampled_from(["memory", "materialized", "deferred"]),
    keys=key_lists,
    lam=st.sampled_from([1.0, 3.0, 15.0]),
    workspace=st.integers(min_value=1, max_value=8),
)


# --------------------------------------------------------------------- #
# Differentials.
# --------------------------------------------------------------------- #
LAZY_SORT_EXAMPLES = [
    ("blocked_memory", "materialized", list(range(8, 0, -1)), 1.0, 8),
    ("pmfs", "memory", [value % 7 for value in range(20)], 15.0, 4),
    ("pmfs", "materialized", [value % 7 for value in range(20)], 1.0, 8),
]


#: Lazy sort materializing never (the input fits the workspace), once and
#: twice, and over a deferred input declared at its size, none, half of it
#: and twice it.
@example(*LAZY_SORT_EXAMPLES[0], 1.0)
@example(*LAZY_SORT_EXAMPLES[1], 1.0)
@example(*LAZY_SORT_EXAMPLES[2], 1.0)
@example("blocked_memory", "deferred", [value % 9 for value in range(90)], 3.0, 3, 1.0)
@example("blocked_memory", "deferred", [value % 9 for value in range(90)], 3.0, 3, 0.0)
@example("pmfs", "deferred", [value % 9 for value in range(90)], 15.0, 4, 0.5)
@example("pmfs", "deferred", [value % 9 for value in range(90)], 1.0, 4, 2.0)
@settings(max_examples=150, deadline=None)
@given(**case, declared=st.sampled_from([1.0, 0.0, 0.5, 2.0]))
def test_lazy_sort_matches_per_pass_scans(
    backend_name, kind, keys, lam, workspace, declared
):
    args = (backend_name, kind, keys, lam, workspace, declared)
    assert observe(LazySort, {}, *args) == observe(ReferenceLazySort, {}, *args)


def test_lazy_sort_examples_cover_zero_one_and_two_materializations():
    counts = {
        observe(LazySort, {}, *args)["details"]["intermediate_materializations"]
        for args in LAZY_SORT_EXAMPLES[:3]
    }
    assert counts == {0, 1, 2}


@settings(max_examples=100, deadline=None)
@given(**case)
def test_selection_sort_matches_per_pass_scans(
    backend_name, kind, keys, lam, workspace
):
    args = (backend_name, kind, keys, lam, workspace)
    observed = observe(SelectionSort, {}, *args)
    with reference_passes():
        assert observed == observe(SelectionSort, {}, *args)


@settings(max_examples=100, deadline=None)
@given(**case, intensity=st.sampled_from([0.0, 0.2, 0.8]))
def test_segment_sort_matches_per_pass_scans(
    backend_name, kind, keys, lam, workspace, intensity
):
    args = (backend_name, kind, keys, lam, workspace)
    kwargs = {"write_intensity": intensity}
    observed = observe(SegmentSort, kwargs, *args)
    with reference_passes():
        assert observed == observe(SegmentSort, kwargs, *args)


#: A key domain from 2 to 10**6 values, so duplicates range from almost
#: every record to almost none.
domain_key_lists = st.tuples(
    st.integers(min_value=2, max_value=10**6), st.integers(min_value=0, max_value=120)
).flatmap(
    lambda shape: st.lists(
        st.integers(min_value=0, max_value=shape[0] - 1),
        min_size=shape[1],
        max_size=shape[1],
    )
)


@settings(max_examples=100, deadline=None)
@given(
    keys=domain_key_lists,
    kind=st.sampled_from(["memory", "materialized"]),
    data=st.data(),
)
def test_ranked_passes_resume_like_selection_scans(keys, kind, data):
    """Every pass is a ``select_smallest`` scan resuming after the last one.

    Batch, threshold and the device's snapshot delta match on every pass;
    the displacing pass, after 0..k lazy ones, also yields the records
    the scan's ``displaced`` callback receives, in the same order.
    """
    # Small workspaces displace many records; up to len + 1 keeps them all.
    capacity = data.draw(
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=len(keys) + 1),
        )
    )
    start = data.draw(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=len(keys)))
    )
    stop = data.draw(
        st.one_of(st.none(), st.integers(min_value=start, max_value=len(keys)))
    )
    num_passes = -(-len(keys[start:stop]) // capacity)
    lazy_passes = data.draw(
        st.one_of(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=max(0, num_passes - 1)),
        )
    )
    device, _, _, collection = build("pmfs", kind, keys, 1.0)
    passes = ranked_passes(collection, capacity, KEY, start, stop)
    threshold = None
    for index in itertools.count():
        before = device.snapshot()
        ranked = next(passes, None)
        if ranked is None:
            break
        batch, ranked_threshold, displaced = ranked
        spill = displaced() if index == lazy_passes else None
        ranked_io = (device.snapshot() - before).as_dict()
        before = device.snapshot()
        expected_spill = []
        expected, threshold = select_smallest(
            collection.scan(start, stop),
            capacity,
            KEY,
            after=threshold,
            displaced=expected_spill.append,
        )
        scan_io = (device.snapshot() - before).as_dict()
        assert (batch, ranked_threshold, ranked_io) == (expected, threshold, scan_io)
        if spill is not None:
            assert spill == expected_spill
    assert select_smallest(
        collection.records[start:stop], capacity, KEY, after=threshold
    ) == ([], None)


# --------------------------------------------------------------------- #
# Structural guard.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["materialized", "deferred"])
@pytest.mark.parametrize(
    "sort_cls, kwargs",
    [
        (LazySort, {}),
        (SelectionSort, {}),
        (SegmentSort, {"write_intensity": 0.0}),
        (SegmentSort, {"write_intensity": 0.2}),
        (SegmentSort, {"write_intensity": 0.8}),
    ],
)
def test_every_source_is_ranked_once(sort_cls, kwargs, kind):
    """No pass runs a selection scan, a materializing one or one over a
    deferred input included: each source is ranked once instead."""
    args = ("pmfs", kind, [value % 97 for value in range(400)], 3.0, 6)
    for module in (lazy_sort_module, selection_sort_module, segment_sort_module):
        assert "select_smallest" not in vars(module)
    rankings = 0

    def counting_rankings(*call_args, **call_kwargs):
        nonlocal rankings
        rankings += 1
        return ranked_passes(*call_args, **call_kwargs)

    with mock.patch.object(
        lazy_sort_module, "ranked_passes", counting_rankings
    ), mock.patch.object(selection_sort_module, "ranked_passes", counting_rankings):
        observed = observe(sort_cls, kwargs, *args)
    if sort_cls is LazySort:
        # One ranking of the input and one of each intermediate.
        materializations = observed["details"]["intermediate_materializations"]
        assert materializations >= 1
        assert rankings == 1 + materializations
        reference = observe(ReferenceLazySort, kwargs, *args)
    else:
        # Every selection pass comes from one ranking of the source.
        assert rankings == 1
        with reference_passes():
            reference = observe(sort_cls, kwargs, *args)
    assert observed["input_scans"] == reference["input_scans"] > 1
