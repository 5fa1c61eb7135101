"""Sorts and SortAgg over a deferred input estimated empty.

A deferred collection's length is only its operator context's estimate.
A filter declared with selectivity 0 that really keeps half its input is
estimated at 0 records, so an operator that took ``len() == 0`` as "empty"
returned nothing.  Every sort and SortAgg decide a deferred input's
emptiness from its scan; a settled input keeps the ``len()`` check.
"""

import pytest

from repro.aggregation import SortedAggregation
from repro.runtime.context import OperatorContext
from repro.sorts import SORT_REGISTRY, SegmentSort
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import wisconsin_permutation

from tests.conftest import build_collection

ROOT_RECORDS = 3_000
#: The filter keeps the even keys: half the root.
KEPT_RECORDS = 1_500


def deferred_evens(backend, selectivity=0.0):
    """A deferred filter keeping the even keys, declared at ``selectivity``."""
    root = build_collection(
        backend, wisconsin_permutation(ROOT_RECORDS, seed=7), name="root"
    )
    context = OperatorContext(backend)
    selected = context.filter(
        context.register(root), lambda record: record[0] % 2 == 0, selectivity
    )
    assert selected.is_deferred
    assert len(selected) == int(ROOT_RECORDS * selectivity)
    return root, selected


@pytest.mark.parametrize("workspace", [100, 2_000])
@pytest.mark.parametrize("name", sorted(SORT_REGISTRY))
def test_sort_reads_every_record_of_a_deferred_input_estimated_empty(
    backend, name, workspace
):
    root, selected = deferred_evens(backend)
    result = SORT_REGISTRY[name](backend, MemoryBudget.from_records(workspace)).sort(
        selected
    )
    assert len(result.output) == KEPT_RECORDS
    assert result.output.records == sorted(
        (record for record in root.records if record[0] % 2 == 0),
        key=lambda record: record[0],
    )


@pytest.mark.parametrize("name", sorted(SORT_REGISTRY))
def test_sort_agg_groups_every_record_of_a_deferred_input_estimated_empty(
    backend, name
):
    _, selected = deferred_evens(backend)
    result = SortedAggregation(
        backend,
        MemoryBudget.from_records(100),
        aggregates={"count": 0},
        sort_class=SORT_REGISTRY[name],
    ).aggregate(selected)
    assert result.groups == KEPT_RECORDS
    assert result.output.records == [
        (key, 1) for key in range(0, ROOT_RECORDS, 2)
    ]


def test_pure_mergesort_segment_reads_an_under_declared_input_to_its_end(backend):
    # At x = 1 segment sort is external mergesort; its run generation used
    # to stop at the boundary computed from the estimate (150 records).
    _, selected = deferred_evens(backend, selectivity=0.05)
    result = SegmentSort(
        backend, MemoryBudget.from_records(100), write_intensity=1.0
    ).sort(selected)
    assert [record[0] for record in result.output.records] == list(
        range(0, ROOT_RECORDS, 2)
    )
