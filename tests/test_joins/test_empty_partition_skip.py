"""Differential test: GJ, SegJ and HybJ write no probe record that cannot match.

The partitioned joins split their build (left) side first.  A right record
whose left partition holds no record cannot match, so it is never written
to a partition, and no store is created for that partition.  The build
keys here are all multiples of some k: ``partition_of`` keeps a key's
factors of two, so at k = 2, 4 or 8 many partitions hold no build record.

Each example checks, against the join's own partition count and
intensities, that

* the output equals a test-local reference join, in the join's order;
* a right partition store exists exactly for each materialized partition
  whose left partition holds a record (read off the golden store
  observer);
* the right partitions hold exactly the record width times the right
  records of those partitions.

When no right partition is left to write -- SegJ at x = 0, or a build
side that turns out empty -- the right input is not scanned to
partition it at all.

Records carry their load position in attribute 1, so equal keys are
distinguishable.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import GraceJoin, HybridGraceNestedLoopsJoin, SegmentedGraceJoin
from repro.hashing import partition_of
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.context import OperatorContext
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.golden_pass import observe

KEY = WISCONSIN_SCHEMA.key

JOINS = {
    "GJ": (GraceJoin, {}),
    "SegJ[x=0]": (SegmentedGraceJoin, {"write_intensity": 0.0}),
    "SegJ[x=0.5]": (SegmentedGraceJoin, {"write_intensity": 0.5}),
    "SegJ[x=1]": (SegmentedGraceJoin, {"write_intensity": 1.0}),
    "HybJ[heuristic]": (HybridGraceNestedLoopsJoin, {}),
    "HybJ[x=y=0.5]": (
        HybridGraceNestedLoopsJoin,
        {"left_intensity": 0.5, "right_intensity": 0.5},
    ),
}
BACKENDS = ("blocked_memory", "pmfs")
RIGHT_PARTITION = re.compile(r"-R-p(\d+)$")


def collection(backend, name, keys):
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = position
        records.append(tuple(fields))
    result = PersistentCollection(
        name=name, backend=backend, status=CollectionStatus.MATERIALIZED
    )
    result.extend(records)
    result.seal()
    return result


def table_of(records):
    table = {}
    for record in records:
        table.setdefault(KEY(record), []).append(record)
    return table


def reference_join(left, right, partitions, left_stop, slice_records):
    """Partition by partition, the whole right input probes the partition's
    records of ``left[:left_stop]`` (a right record of another partition
    matches none of them); then slices of the rest of ``left`` are joined
    against the whole right input.  Matches follow build order."""
    tables = [
        table_of(
            record
            for record in left[:left_stop]
            if partition_of(KEY(record), partitions) == index
        )
        for index in range(partitions)
    ] + [
        table_of(left[start:start + slice_records])
        for start in range(left_stop, len(left), slice_records)
    ]
    return [
        match + record
        for table in tables
        for record in right
        for match in table.get(KEY(record), ())
    ]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(JOINS))
@settings(max_examples=15, deadline=None)
@given(
    scale=st.integers(min_value=1, max_value=8),
    build_values=st.lists(
        st.integers(min_value=0, max_value=60), min_size=16, max_size=200
    ),
    probe_keys=st.lists(
        st.integers(min_value=0, max_value=200), min_size=1, max_size=400
    ),
    budget_records=st.integers(min_value=4, max_value=24),
)
def test_no_probe_record_is_written_for_an_empty_build_partition(
    algorithm, backend_name, scale, build_values, probe_keys, budget_records
):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    left = collection(backend, "left", [scale * value for value in build_values])
    right = collection(backend, "right", probe_keys)
    cls, kwargs = JOINS[algorithm]
    join = cls(backend, MemoryBudget.from_records(budget_records), **kwargs)
    observation = observe(join.join, left, right)
    result = observation.value

    partitions = result.partitions
    materialized = result.details.get("materialized_partitions", partitions)
    left_stop = round(len(left) * result.details.get("left_intensity", 1.0))
    # HybJ partitions no right record when it partitions no left record.
    right_stop = (
        round(len(right) * result.details.get("right_intensity", 1.0))
        if partitions
        else 0
    )
    assert result.output.records == reference_join(
        left.records,
        right.records,
        partitions,
        left_stop,
        join.left_workspace_records,
    )

    occupied = {
        partition_of(KEY(record), partitions) for record in left.records[:left_stop]
    }
    written = {index for index in occupied if index < materialized}
    right_parts = {}
    for store in observation.created:
        match = RIGHT_PARTITION.search(store.label)
        if match:
            assert int(match.group(1)) not in right_parts, store.label
            right_parts[int(match.group(1))] = store
    assert set(right_parts) == written
    probe_records = sum(
        partition_of(KEY(record), partitions) in written
        for record in right.records[:right_stop]
    )
    assert sum(store.logical_bytes for store in right_parts.values()) == (
        probe_records * WISCONSIN_SCHEMA.record_bytes
    )


def right_scans(observation):
    return sum(scan["collection"] == "right" for scan in observation.scans)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_segmented_join_at_x0_scans_the_right_input_only_to_probe(backend_name):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    left = collection(backend, "left", [4 * value for value in range(40)])
    right = collection(backend, "right", range(200))
    join = SegmentedGraceJoin(
        backend, MemoryBudget.from_records(8), write_intensity=0.0
    )
    observation = observe(join.join, left, right)
    result = observation.value
    assert result.details["materialized_partitions"] == 0
    assert result.details["rescans"] > 0
    # One scan per rescanned partition, none to partition the input.
    assert right_scans(observation) == result.details["rescans"]


@pytest.mark.parametrize("algorithm", ["GJ", "SegJ[x=0.5]", "HybJ[x=y=0.5]"])
def test_an_empty_build_side_leaves_the_right_input_unscanned(algorithm):
    backend = make_backend("blocked_memory", PersistentMemoryDevice())
    root = collection(backend, "root", range(100))
    context = OperatorContext(backend)
    context.register(root)
    # Declared at 100 records, the filter keeps none: the join partitions
    # for a build side its scan never finds.
    left = context.declare(name="left", expected_records=100)
    context.filter(root, lambda record: False, 1.0, output=left)
    right = collection(backend, "right", range(300))
    cls, kwargs = JOINS[algorithm]
    join = cls(backend, MemoryBudget.from_records(8), **kwargs)
    observation = observe(join.join, left, right)
    assert observation.value.partitions > 0
    assert observation.value.output.records == []
    assert right_scans(observation) == 0
