"""Exact simulated-I/O golden fixture for every consumer of a deferred input.

A DEFERRED collection is never written: each scan re-derives it from its
nearest available ancestor (Section 3.1), so its price is whatever the
replay charges against that ancestor.  This test feeds a deferred filter
-- selectivity 0, 0.25 and 1, over a MEMORY and a MATERIALIZED root, on two
backends -- to every join (as the build side, so NLJ and HybJ cut sliced
replays mid-source), every sort (selection passes over a slice), both
spilling aggregations and the runtime API's segmented Grace join operator
at a lambda that keeps its partitions deferred and one that promotes them.
It compares the device's ``IOSnapshot.as_dict()`` delta, the stats of every
store the case created (a scratch store's as of its drop), the replay
bookkeeping (``reconstruction_count`` and
``last_reconstructed_records``) and a digest of the output order against
the committed ``golden_io/deferred.json``.  Regenerate with::

    REGENERATE_GOLDEN=1 python -m pytest tests/test_runtime/test_golden_io.py
"""

import hashlib
import json
import os
import pathlib
import random
import re

import pytest

from repro.aggregation import HashAggregation, SortedAggregation
from repro.joins import (
    GraceJoin,
    HybridGraceNestedLoopsJoin,
    LazyHashJoin,
    NestedLoopsJoin,
    SegmentedGraceJoin,
    SimpleHashJoin,
)
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.pmem.latency import LatencyModel
from repro.runtime.context import OperatorContext
from repro.runtime.operators import SegmentedGraceJoinOperator
from repro.runtime.rules import RuleEngine
from repro.sorts import (
    ExternalMergeSort,
    HybridSort,
    LazySort,
    SegmentSort,
    SelectionSort,
)
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import wisconsin_permutation

from tests.golden_pass import observed_pass

GOLDEN_PATH = pathlib.Path(__file__).parents[1] / "golden_io" / "deferred.json"

ROOT_RECORDS = 500
#: Root keys repeat: 500 records over 400 distinct keys.
ROOT_DISTINCT_KEYS = 400
RIGHT_RECORDS = 900
#: DRAM budget in records: NLJ cuts the build side into several slices
#: (the last one short), the hash aggregation spills and every sort runs
#: more than one pass.
BUDGET_RECORDS = 40
BACKENDS = ("blocked_memory", "pmfs")
ROOTS = ("memory", "materialized")
#: Filter predicates on the load position (attribute 1), by selectivity.
SELECTIVITIES = {
    "0": lambda record: False,
    "0.25": lambda record: record[1] % 4 == 1,
    "1": lambda record: True,
}

JOINS = {
    "NLJ": (NestedLoopsJoin, {}),
    "GJ": (GraceJoin, {}),
    "SegJ[x=0.5]": (SegmentedGraceJoin, {"write_intensity": 0.5}),
    "HybJ[x=y=0.5]": (
        HybridGraceNestedLoopsJoin,
        {"left_intensity": 0.5, "right_intensity": 0.5},
    ),
    "HJ": (SimpleHashJoin, {}),
    "LaJ": (LazyHashJoin, {}),
}
SORTS = {
    "ExMS": (ExternalMergeSort, {}),
    "SegS[x=0.5]": (SegmentSort, {"write_intensity": 0.5}),
    "HybS[50%]": (HybridSort, {"write_intensity": 0.5}),
    "LaS": (LazySort, {}),
    "SelS": (SelectionSort, {}),
}
AGGREGATIONS = {
    "HashAgg": HashAggregation,
    "SortAgg[SegS]": SortedAggregation,
}
AGGREGATES = {"count": 0, "sum": 1, "min": 1}
#: The runtime operator at a write/read ratio that keeps its partitions
#: deferred, and at one that promotes them (partition-group production).
RUNTIME_LAMBDAS = {"runtime.SegJ[lambda=15]": 15.0, "runtime.SegJ[lambda=1]": 1.0}


class CostRules(RuleEngine):
    """The rule engine without process-to-append, which would defer every
    partition the operator merges once: lambda alone then decides."""

    RULE_ORDER = RuleEngine.RULE_ORDER[1:]


def _with_positions(keys):
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = position
        records.append(tuple(fields))
    return records


def deferred_input(backend, root_kind, selectivity, rules=None):
    """An operator context and a deferred filter over the fixed root."""
    keys = [
        value % ROOT_DISTINCT_KEYS
        for value in wisconsin_permutation(ROOT_RECORDS, seed=17)
    ]
    if root_kind == "memory":
        root = PersistentCollection(name="root", status=CollectionStatus.MEMORY)
    else:
        root = PersistentCollection(
            name="root", backend=backend, status=CollectionStatus.MATERIALIZED
        )
    root.extend(_with_positions(keys))
    root.seal()
    context = OperatorContext(backend, rules=rules)
    context.register(root)
    # The estimate is floored at one record, so f=0 is an over-declared
    # empty input: consumers size for a record its scan never finds.
    output = context.declare(
        name="deferred-filter",
        expected_records=max(1, int(ROOT_RECORDS * float(selectivity))),
    )
    context.filter(
        root, SELECTIVITIES[selectivity], float(selectivity), output=output
    )
    return context, output


def probe_side(backend):
    rng = random.Random(19)
    keys = [rng.randrange(ROOT_DISTINCT_KEYS + 50) for _ in range(RIGHT_RECORDS)]
    collection = PersistentCollection(
        name="probe", backend=backend, status=CollectionStatus.MATERIALIZED
    )
    collection.extend(_with_positions(keys))
    collection.seal()
    return collection


def digest(records):
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()[:16]


def created_stores(backend):
    """The stats of every store ``backend`` creates from now on, in creation
    order; a store the run drops keeps the stats it had when dropped."""
    created = []
    create_store = backend.create_store

    def spy(label):
        stats = create_store(label)
        created.append(stats)
        return stats

    backend.create_store = spy
    return created


def store_stats(created):
    """Each created store's stats, run counters normalised away."""
    return [
        [
            re.sub(r"\d+", "#", stats.label),
            stats.logical_bytes,
            stats.physical_bytes,
            stats.append_calls,
            stats.read_calls,
            stats.truncate_calls,
            stats.extra,
        ]
        for stats in created
    ]


def run_case(backend_name, root_kind, selectivity, consumer):
    write_ns = 10.0 * RUNTIME_LAMBDAS.get(consumer, 15.0)
    device = PersistentMemoryDevice(
        latency=LatencyModel(read_ns=10.0, write_ns=write_ns)
    )
    backend = make_backend(backend_name, device)
    created = created_stores(backend)
    rules = CostRules() if consumer in RUNTIME_LAMBDAS else None
    context, deferred = deferred_input(backend, root_kind, selectivity, rules)
    right = probe_side(backend)
    budget = MemoryBudget.from_records(BUDGET_RECORDS)
    before = device.snapshot()
    if consumer in RUNTIME_LAMBDAS:
        output = SegmentedGraceJoinOperator(
            context, deferred, right, num_partitions=4
        ).evaluate()
        details = [
            [decision.collection.name, decision.rule, decision.materialize]
            for decision in context.decisions
        ]
    elif consumer in AGGREGATIONS:
        result = AGGREGATIONS[consumer](
            backend, budget, group_index=0, aggregates=AGGREGATES
        ).aggregate(deferred)
        output, details = result.output, [result.groups, result.spills]
    elif consumer in SORTS:
        cls, kwargs = SORTS[consumer]
        result = cls(backend, budget, **kwargs).sort(deferred)
        output = result.output
        details = [result.runs_generated, result.merge_passes, result.input_scans]
    else:
        cls, kwargs = JOINS[consumer]
        result = cls(backend, budget, **kwargs).join(deferred, right)
        output, details = result.output, [result.partitions, result.iterations]
    replays = {
        collection.name: [
            context.reconstruction_count(collection),
            context.last_reconstructed_records(collection),
        ]
        for collection in context.collections()
        if context.reconstruction_count(collection)
    }
    return {
        "io": (device.snapshot() - before).as_dict(),
        "stores": store_stats(created),
        "replays": replays,
        "details": details,
        "output_digest": digest(output.records),
    }


CONSUMERS = [*JOINS, *SORTS, *AGGREGATIONS, *RUNTIME_LAMBDAS]
CASES = [
    (backend_name, root_kind, selectivity, consumer)
    for backend_name in BACKENDS
    for root_kind in ROOTS
    for selectivity in SELECTIVITIES
    for consumer in CONSUMERS
]


def case_id(backend_name, root_kind, selectivity, consumer):
    return f"{backend_name}/{root_kind}/f={selectivity}/{consumer}"


def observed_cases():
    """Every case, run once per session under the golden observers."""
    return observed_pass("deferred", CASES, run_case)


@pytest.fixture(scope="module")
def observed():
    return observed_cases()


@pytest.fixture(scope="module")
def golden(observed):
    if os.environ.get("REGENERATE_GOLDEN"):
        table = {case_id(*case): observed[case].value for case in CASES}
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


def test_fixture_exercises_sliced_and_promoted_replays(golden):
    nlj = golden[case_id("blocked_memory", "materialized", "1", "NLJ")]
    # One sliced replay per build slice, the last one short.
    slices = -(-ROOT_RECORDS // BUDGET_RECORDS)
    assert nlj["details"][1] == slices
    assert nlj["replays"]["deferred-filter"] == [slices, ROOT_RECORDS]
    kept, promoted = (
        golden[case_id("blocked_memory", "materialized", "1", consumer)]
        for consumer in RUNTIME_LAMBDAS
    )
    # At lambda=15 every left partition is re-derived from the filter; at
    # lambda=1 they are all produced in one pass and none is replayed.
    assert sorted(kept["replays"])[:4] == [f"sgj-L-{i}" for i in range(1, 5)]
    assert promoted["replays"] == {}
    assert promoted["details"][0][1:] == ["read-over-write", True]


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_deferred_consumer_io_matches_golden(case, golden, observed):
    assert observed[case].value == golden[case_id(*case)], (
        "simulated I/O, replay bookkeeping or output order changed; inspect "
        "the diff and, if intended, regenerate with REGENERATE_GOLDEN=1 "
        f"python -m pytest {__file__}"
    )
