"""One length contract for every consumer of a deferred input.

A DEFERRED collection is never written: each scan re-derives it, so its
length is unknown until a scan ends.  ``len()`` of one raises; operators
size partitions, boundaries and workspaces from ``estimated_records`` and
stop on an exhausted scan, so a wrong declaration may cost I/O but never
records.  The matrix feeds a filter keeping half its root, declared at 0,
under (0.05), exact (0.5) and over (0.9), to every sort, every join (the
deferred input on each side) and both aggregations (SortAgg over every
sort), and diffs each result against the same operator over a settled
copy of the filtered records.
"""

import pytest

from repro.aggregation import HashAggregation, SortedAggregation
from repro.exceptions import CollectionStateError
from repro.runtime.context import OperatorContext
from repro.query import JOIN_ALTERNATIVES, SORT_ALTERNATIVES
from repro.sorts import SegmentSort, SelectionSort
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import wisconsin_permutation

from tests.conftest import build_collection

ROOT_RECORDS = 1_000
#: Budgets in records: several passes, partitions and spills, and one
#: workspace that holds the whole filtered input.
BUDGETS = (100, 1_000)
DECLARED = {"zero": 0.0, "under": 0.05, "exact": 0.5, "over": 0.9}


def keep(record):
    return record[0] % 2 == 0


# Every consumer is called as ``(backend, budget, source, other)``; only the
# joins read ``other``, the settled table joined to the source.
def sort_with(cls, **kwargs):
    return lambda backend, budget, source, other: cls(
        backend, budget, **kwargs
    ).sort(source)


def join_with(cls, side):
    def run(backend, budget, source, other):
        left, right = (source, other) if side == "left" else (other, source)
        return cls(backend, budget).join(left, right)

    return run


def aggregate_with(cls, **kwargs):
    return lambda backend, budget, source, other: cls(
        backend, budget, aggregates={"count": 0, "sum": 1}, **kwargs
    ).aggregate(source)


#: Every sort: the planner's alternatives, and selection sort.
SORT_CLASSES = {**SORT_ALTERNATIVES, "SelS": SelectionSort}
SORTS = {
    **{name: sort_with(cls) for name, cls in SORT_CLASSES.items()},
    # At x = 1 segment sort is external mergesort, reading to the end.
    "SegS[x=1]": sort_with(SegmentSort, write_intensity=1.0),
}
CONSUMERS = {
    **SORTS,
    **{
        f"{name}[{side}]": join_with(cls, side)
        for name, cls in JOIN_ALTERNATIVES.items()
        for side in ("left", "right")
    },
    **{
        f"SortAgg[{name}]": aggregate_with(SortedAggregation, sort_class=cls)
        for name, cls in SORT_CLASSES.items()
    },
    "HashAgg": aggregate_with(HashAggregation),
}


@pytest.mark.parametrize("budget_records", BUDGETS)
@pytest.mark.parametrize("declared", DECLARED.values(), ids=list(DECLARED))
@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_deferred_input_gives_the_settled_result(
    backend, consumer, declared, budget_records
):
    root = build_collection(
        backend, wisconsin_permutation(ROOT_RECORDS, seed=7), name="root"
    )
    context = OperatorContext(backend)
    deferred = context.filter(context.register(root), keep, declared)
    settled = build_collection(
        backend, [record[0] for record in filter(keep, root.records)], name="evens"
    )
    other = build_collection(
        backend, wisconsin_permutation(ROOT_RECORDS, seed=11), name="other"
    )
    budget = MemoryBudget.from_records(budget_records)

    run = CONSUMERS[consumer]
    expected = run(backend, budget, settled, other).output.records
    actual = run(backend, budget, deferred, other).output.records

    assert expected
    if consumer in SORTS:
        assert actual == expected
    else:
        # Partition counts follow the estimate, so output order may not.
        assert sorted(actual) == sorted(expected)


def test_len_of_a_deferred_collection_raises(backend):
    root = build_collection(backend, range(100), name="root")
    context = OperatorContext(backend)
    deferred = context.filter(context.register(root), keep, 0.3)
    assert deferred.estimated_records == 30
    with pytest.raises(CollectionStateError):
        len(deferred)
    assert root.estimated_records == len(root) == 100


@pytest.mark.parametrize("declared", [0.05, 0.5, 0.9], ids=["under", "exact", "over"])
def test_segment_sort_reports_the_scans_it_made(backend, declared):
    """``input_scans`` counts the selection passes that ran: each replays the
    deferred input once, however wrong its declared size."""
    root = build_collection(
        backend, wisconsin_permutation(ROOT_RECORDS, seed=7), name="root"
    )
    context = OperatorContext(backend)
    deferred = context.filter(context.register(root), keep, declared)
    result = SegmentSort(
        backend, MemoryBudget.from_records(100), write_intensity=0.2
    ).sort(deferred)
    assert result.input_scans == context.reconstruction_count(deferred) > 2
