"""Differential test: the once-probed nested loops equal one probe per slice.

``JoinAlgorithm._nested_loops`` (NLJ, and HybJ's phase 3) reads the left
input in workspace-sized slices and charges one rescan of the right input
per slice, but probes the right input only once, against one table of
every slice's records tagged with its slice, and writes the matches slice
by slice.  This file keeps the loop it replaced -- one hash table and one
``probe_into`` of a fresh right scan per slice -- as a test-local
reference, and runs each join both ways on identical fresh builds: the
output records and their order, the slice count, the ``IOSnapshot`` and
a deferred input's replay tallies must match.

Budgets give 1-4 slices (a left input an exact multiple of the workspace
included, whose last, empty slice charges nothing); keys repeat within and
across slices; the right input may be empty; either input may be a
DEFERRED filter.  Records carry their load position in attribute 1, so
equal keys are distinguishable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import HybridGraceNestedLoopsJoin, NestedLoopsJoin
from repro.joins.common import build_hash_table, probe_into
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.context import OperatorContext
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA


def per_slice_nested_loops(self, left, right, start, output):
    """The loop before the single probe: one probe of ``right`` per slice."""
    block_records = self.left_workspace_records
    iterations = 0
    while block := list(left.scan(start=start, stop=start + block_records)):
        iterations += 1
        table = build_hash_table(block, self.left_key)
        probe_into(output, table, right.scan_blocks(), self.right_key)
        if len(block) < block_records:
            break
        start += block_records
    return iterations


class PerSliceNLJ(NestedLoopsJoin):
    _nested_loops = per_slice_nested_loops


class PerSliceHybJ(HybridGraceNestedLoopsJoin):
    _nested_loops = per_slice_nested_loops


JOINS = {
    "NLJ": (NestedLoopsJoin, PerSliceNLJ, {}),
    # Phase 3 over the unpartitioned left half, after a Grace phase.
    "HybJ[x=0.5]": (
        HybridGraceNestedLoopsJoin,
        PerSliceHybJ,
        {"left_intensity": 0.5, "right_intensity": 0.4},
    ),
    # Phase 3 alone: nothing is partitioned.
    "HybJ[x=0]": (
        HybridGraceNestedLoopsJoin,
        PerSliceHybJ,
        {"left_intensity": 0.0, "right_intensity": 0.0},
    ),
}


def keep_even_positions(record):
    return record[1] % 2 == 0


def side(backend, name, keys, deferred):
    """A sealed collection of ``keys`` (or a deferred filter keeping its
    even positions) and the context replaying it, if any."""
    root = PersistentCollection(name, backend)
    root.extend(
        record[:1] + (position,) + record[2:]
        for position, record in enumerate(map(WISCONSIN_SCHEMA.make_record, keys))
    )
    root.seal()
    if not deferred:
        return root, None
    context = OperatorContext(backend)
    return context.filter(context.register(root), keep_even_positions, 0.5), context


def run(
    join_name, reference, backend_name, workspace, left_keys, right_keys, deferred
):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    left, left_context = side(backend, "L", left_keys, deferred == "left")
    right, right_context = side(backend, "R", right_keys, deferred == "right")
    cls, reference_cls, options = JOINS[join_name]
    join = (reference_cls if reference else cls)(
        backend, MemoryBudget.from_records(workspace), **options
    )
    result = join.join(left, right)
    replays = [
        (
            context.reconstruction_count(collection),
            context.last_reconstructed_records(collection),
        )
        for context, collection in ((left_context, left), (right_context, right))
        if context is not None
    ]
    return result.output.records, result.iterations, result.io, replays


@st.composite
def cases(draw):
    workspace = draw(st.integers(min_value=2, max_value=24))
    slices = draw(st.integers(min_value=1, max_value=4))
    # Down to one record past the previous slice; 0 short is an exact fit.
    short = draw(st.integers(min_value=0, max_value=workspace - 1))
    num_left = slices * workspace - short
    deferred = draw(st.sampled_from([None, "left", "right"]))
    if deferred == "left":
        num_left *= 2  # the filter keeps every other record
    keys = st.integers(min_value=0, max_value=draw(st.integers(1, 12)))
    left_keys = draw(st.lists(keys, min_size=num_left, max_size=num_left))
    right_keys = draw(st.lists(keys, max_size=60))
    return workspace, left_keys, right_keys, deferred


@settings(max_examples=60, deadline=None)
@given(
    join_name=st.sampled_from(sorted(JOINS)),
    backend_name=st.sampled_from(sorted(BACKEND_REGISTRY)),
    case=cases(),
)
def test_once_probed_nested_loops_equal_one_probe_per_slice(
    join_name, backend_name, case
):
    once = run(join_name, False, backend_name, *case)
    per_slice = run(join_name, True, backend_name, *case)
    assert once == per_slice


def test_the_slices_of_a_long_left_input_are_all_joined():
    backend = make_backend("blocked_memory", PersistentMemoryDevice())
    left, _ = side(backend, "L", [key % 5 for key in range(40)], False)
    right, _ = side(backend, "R", list(range(6)) * 3, False)
    result = NestedLoopsJoin(backend, MemoryBudget.from_records(11)).join(left, right)
    assert result.iterations == 4
    # Slice by slice; within a slice, by right record, then by left record.
    expected = [
        match + record
        for start in range(0, 40, 11)
        for record in right.records
        for match in left.records[start : start + 11]
        if match[0] == record[0]
    ]
    assert result.output.records == expected
