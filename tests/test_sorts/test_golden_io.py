"""Exact simulated-I/O golden fixture for every sort.

Figure output is rounded to three significant digits, so it cannot pin the
device counters.  This test runs every sort of Section 2.1 -- plus the
sorted aggregation, which sorts on a non-leading attribute -- over one
fixed 3000-record input with duplicate keys at two DRAM budgets and on all
four backends, and compares the full ``IOSnapshot.as_dict()``, the run /
merge / scan counts and a digest of the output order against the committed
``golden_io/sorts.json``.  The input carries each record's load position
in attribute 1, so the digest also pins the order of equal keys.
Regenerate with::

    REGENERATE_GOLDEN=1 python -m pytest tests/test_sorts/test_golden_io.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.aggregation import SortedAggregation
from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
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

GOLDEN_PATH = pathlib.Path(__file__).parents[1] / "golden_io" / "sorts.json"

NUM_RECORDS = 3000
#: Keys are drawn from this many distinct values, so each repeats ~4 times.
DISTINCT_KEYS = 700
#: DRAM budgets in records: 0.8% of the input (runs outnumber the merge
#: fan-in, so merging takes several passes) and 8%.
BUDGET_RECORDS = (24, 240)
BACKENDS = ("blocked_memory", "pmfs", "ramdisk", "dynamic_array")

ALGORITHMS = {
    "ExMS": (ExternalMergeSort, {}),
    "SegS[x=0]": (SegmentSort, {"write_intensity": 0.0}),
    "SegS[x=0.2]": (SegmentSort, {"write_intensity": 0.2}),
    "SegS[x=0.8]": (SegmentSort, {"write_intensity": 0.8}),
    "SegS[x=1]": (SegmentSort, {"write_intensity": 1.0}),
    "SegS[Eq.4]": (SegmentSort, {}),
    "HybS[20%]": (HybridSort, {"write_intensity": 0.2}),
    "HybS[80%]": (HybridSort, {"write_intensity": 0.8}),
    "LaS": (LazySort, {}),
    "SelS": (SelectionSort, {}),
}
#: Attribute the sorted aggregation groups (and therefore sorts) on.
SORTAGG_GROUP_INDEX = 2


def golden_input(backend):
    """The fixed input: duplicate keys, load position in attribute 1."""
    collection = PersistentCollection(
        name="golden-input",
        backend=backend,
        status=CollectionStatus.MATERIALIZED,
    )
    records = []
    for position, value in enumerate(wisconsin_permutation(NUM_RECORDS, seed=7)):
        fields = list(WISCONSIN_SCHEMA.make_record(value % DISTINCT_KEYS))
        fields[1] = position
        records.append(tuple(fields))
    collection.extend(records)
    collection.seal()
    return collection


def digest(records):
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()[:16]


def run_case(backend_name, budget_records, algorithm):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection = golden_input(backend)
    budget = MemoryBudget.from_records(budget_records)
    if algorithm == "SortAgg[SegS]":
        aggregation = SortedAggregation(
            backend,
            budget,
            group_index=SORTAGG_GROUP_INDEX,
            aggregates={"count": 0, "sum": 1, "min": 1},
        )
        result = aggregation.aggregate(collection)
        return {
            "io": result.io.as_dict(),
            "runs_generated": result.details["sort_runs"],
            "input_scans": result.details["sort_scans"],
            "groups": result.groups,
            "output_digest": digest(result.output.records),
        }
    cls, kwargs = ALGORITHMS[algorithm]
    result = cls(backend, budget, **kwargs).sort(collection)
    return {
        "io": result.io.as_dict(),
        "runs_generated": result.runs_generated,
        "merge_passes": result.merge_passes,
        "input_scans": result.input_scans,
        "output_digest": digest(result.output.records),
    }


CASES = [
    (backend_name, budget_records, algorithm)
    for backend_name in BACKENDS
    for budget_records in BUDGET_RECORDS
    for algorithm in [*ALGORITHMS, "SortAgg[SegS]"]
]


def case_id(backend_name, budget_records, algorithm):
    return f"{backend_name}/M={budget_records}/{algorithm}"


def observed_cases():
    """Every case, run once per session under the golden observers."""
    return observed_pass("sorts", CASES, run_case)


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


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_sort_io_matches_golden(case, golden, observed):
    assert observed[case].value == golden[case_id(*case)], (
        "simulated I/O or output order changed; inspect the diff and, if "
        "intended, regenerate with REGENERATE_GOLDEN=1 python -m pytest "
        f"{__file__}"
    )
