"""Exact simulated-I/O golden fixture for every join and aggregation.

Figure output is rounded to three significant digits, so it cannot pin the
device counters.  This test runs every join of Section 2.2, the runtime
API's segmented Grace join operator and both grouped aggregations over one
fixed pair of inputs -- a left side with some duplicate keys and a
Zipf-skewed right side whose hot keys repeat many times and whose tail
keys partly miss the left side -- at two DRAM budgets and on all four
backends.  It compares the full ``IOSnapshot.as_dict()``, the partition /
iteration / group / spill counts and a digest of the output order against
the committed ``golden_io/joins.json``.  Both inputs carry each record's load
position in attribute 1, so the digest also pins the order of equal keys.
The joins also run over a skewed build side whose keys are all multiples of
4 (the ``lowmem_join`` shape): ``partition_of`` keeps a key's factors of
two, so most partitions of a partition count divisible by 4 hold no build
record.  GJ, SegJ and HybJ then write none of those partitions' probe
records; the other hash joins pass them an empty hash table.
Regenerate with::

    REGENERATE_GOLDEN=1 python -m pytest tests/test_joins/test_golden_io.py
"""

import hashlib
import json
import os
import pathlib
import random

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
from repro.runtime.context import OperatorContext
from repro.runtime.operators import SegmentedGraceJoinOperator
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import wisconsin_permutation

from tests.golden_pass import observed_pass

GOLDEN_PATH = pathlib.Path(__file__).parents[1] / "golden_io" / "joins.json"

LEFT_RECORDS = 300
#: Left keys repeat: 300 records over 250 distinct keys.
LEFT_DISTINCT_KEYS = 250
RIGHT_RECORDS = 2400
#: Right keys are Zipf(1) over this many keys, 30 of which have no left match.
RIGHT_KEY_SPACE = 280
#: DRAM budgets in records: 8% of the left input (many partitions, and the
#: hash aggregation spills) and 80% (two partitions, every group in DRAM).
BUDGET_RECORDS = (24, 240)
BACKENDS = ("blocked_memory", "pmfs", "ramdisk", "dynamic_array")

JOINS = {
    "NLJ": (NestedLoopsJoin, {}),
    "GJ": (GraceJoin, {}),
    "SegJ[x=0]": (SegmentedGraceJoin, {"write_intensity": 0.0}),
    "SegJ[x=0.5]": (SegmentedGraceJoin, {"write_intensity": 0.5}),
    "SegJ[x=1]": (SegmentedGraceJoin, {"write_intensity": 1.0}),
    "HybJ[heuristic]": (HybridGraceNestedLoopsJoin, {}),
    "HybJ[x=y=0.5]": (
        HybridGraceNestedLoopsJoin,
        {"left_intensity": 0.5, "right_intensity": 0.5},
    ),
    "HJ": (SimpleHashJoin, {}),
    "LaJ": (LazyHashJoin, {}),
}
AGGREGATIONS = {
    "HashAgg": HashAggregation,
    "SortAgg[SegS]": SortedAggregation,
}
#: Budgets and backends of the skewed-build cases, whose left keys are
#: scaled by :data:`SKEWED_BUILD_SCALE`.  At M=30 GJ and SegJ make 12
#: partitions, 9 of them without a build record; HJ, LaJ and the runtime
#: operator 10 (5 empty) and HybJ[x=y=0.5] 6 (3 empty).  At M=100 GJ and
#: SegJ make 4 (3 empty).  For GJ, SegJ and HybJ these cases pin the skip:
#: no right partition is written, read back or rescanned where the left
#: partition is empty.  For HJ, LaJ and the runtime operator they pin
#: ``probe_into``'s drain of an empty table.
SKEWED_BUILD_SCALE = 4
SKEWED_BUDGET_RECORDS = (30, 100)
SKEWED_BACKENDS = ("blocked_memory", "pmfs")
AGGREGATES = {"count": 0, "sum": 1, "min": 1, "max": 3, "avg": 1}
RUNTIME_OPERATOR = "runtime.SegJ"


def _with_positions(keys):
    records = []
    for position, key in enumerate(keys):
        fields = list(WISCONSIN_SCHEMA.make_record(key))
        fields[1] = position
        records.append(tuple(fields))
    return records


def golden_inputs(backend, build_scale=1):
    """The fixed inputs, load position in attribute 1 of each record; the
    left keys are multiplied by ``build_scale``."""
    left_keys = [
        build_scale * (value % LEFT_DISTINCT_KEYS)
        for value in wisconsin_permutation(LEFT_RECORDS, seed=11)
    ]
    rng = random.Random(13)
    weights = [1.0 / rank for rank in range(1, RIGHT_KEY_SPACE + 1)]
    hot_first = list(range(RIGHT_KEY_SPACE))
    rng.shuffle(hot_first)
    right_keys = rng.choices(hot_first, weights=weights, k=RIGHT_RECORDS)
    collections = []
    for name, keys in (("golden-left", left_keys), ("golden-right", right_keys)):
        collection = PersistentCollection(
            name=name, backend=backend, status=CollectionStatus.MATERIALIZED
        )
        collection.extend(_with_positions(keys))
        collection.seal()
        collections.append(collection)
    return collections


def digest(records):
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()[:16]


def run_case(backend_name, budget_records, algorithm, build_scale=1):
    device = PersistentMemoryDevice()
    backend = make_backend(backend_name, device)
    left, right = golden_inputs(backend, build_scale)
    budget = MemoryBudget.from_records(budget_records)
    if algorithm in AGGREGATIONS:
        aggregation = AGGREGATIONS[algorithm](
            backend, budget, group_index=0, aggregates=AGGREGATES
        )
        result = aggregation.aggregate(right)
        return {
            "io": result.io.as_dict(),
            "groups": result.groups,
            "spills": result.spills,
            "details": result.details,
            "output_digest": digest(result.output.records),
        }
    if algorithm == RUNTIME_OPERATOR:
        context = OperatorContext(backend)
        before = device.snapshot()
        output = SegmentedGraceJoinOperator(
            context,
            left,
            right,
            num_partitions=-(-LEFT_RECORDS // budget_records),
        ).evaluate()
        return {
            "io": (device.snapshot() - before).as_dict(),
            "decisions": [
                [decision.collection.name, decision.rule, decision.materialize]
                for decision in context.decisions
            ],
            "output_digest": digest(output.records),
        }
    cls, kwargs = JOINS[algorithm]
    result = cls(backend, budget, **kwargs).join(left, right)
    return {
        "io": result.io.as_dict(),
        "partitions": result.partitions,
        "iterations": result.iterations,
        "details": result.details,
        "output_digest": digest(result.output.records),
    }


CASES = [
    (backend_name, budget_records, algorithm)
    for backend_name in BACKENDS
    for budget_records in BUDGET_RECORDS
    for algorithm in [*JOINS, RUNTIME_OPERATOR, *AGGREGATIONS]
] + [
    (backend_name, budget_records, algorithm, SKEWED_BUILD_SCALE)
    for backend_name in SKEWED_BACKENDS
    for budget_records in SKEWED_BUDGET_RECORDS
    for algorithm in [*JOINS, RUNTIME_OPERATOR]
]


def case_id(backend_name, budget_records, algorithm, build_scale=1):
    scaled = f"/build-keys-x{build_scale}" if build_scale != 1 else ""
    return f"{backend_name}/M={budget_records}{scaled}/{algorithm}"


def observed_cases():
    """Every case, run once per session under the golden observers."""
    return observed_pass("joins", CASES, run_case)


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


def test_fixture_exercises_spills_and_in_memory_aggregation(golden):
    spills = {
        budget: golden[case_id("blocked_memory", budget, "HashAgg")]["spills"]
        for budget in BUDGET_RECORDS
    }
    assert spills[BUDGET_RECORDS[0]] > 0
    assert spills[BUDGET_RECORDS[1]] == 0


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_join_and_aggregation_io_matches_golden(case, golden, observed):
    assert observed[case].value == golden[case_id(*case)], (
        "simulated I/O or output order changed; inspect the diff and, if "
        "intended, regenerate with REGENERATE_GOLDEN=1 python -m pytest "
        f"{__file__}"
    )
