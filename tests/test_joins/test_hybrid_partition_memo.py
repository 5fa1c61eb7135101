"""HybJ's Grace phase reads a sealed input's bucket memo when it partitions
the input whole.

HybJ partitions the first ``round(len * x)`` left and ``round(len * y)``
right records.  ``partition_source`` clips that stop against a settled
source's length, so at x = 1 or y = 1 the side is served from its bucket
memo (``PersistentCollection.partitioned``) instead of being hashed again
on every run.  A spy on ``repro.hashing.bucket_into``, the one bucketing
loop, counts the records hashed; a differential against the streaming
``partition_into`` over the scan, kept here as the reference, checks that
the join writes, reads and returns exactly what it did.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro import hashing
from repro.joins import HybridGraceNestedLoopsJoin
from repro.joins.common import partition_into
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.storage.bufferpool import MemoryBudget

from tests.conftest import build_collection

BUDGET = MemoryBudget.from_records(60)


def streaming_partition_source(source, key_index, targets, stop=None):
    """The streaming pass: ``partition_into`` over the source's scan."""
    return partition_into(source.scan_blocks(stop=stop), key_index, targets)


def inputs(backend):
    left = build_collection(backend, range(300), "T")
    right = build_collection(backend, [key % 300 for key in range(1_500)], "V")
    return left, right


def test_two_runs_at_full_intensity_bucket_each_sealed_side_once(backend, monkeypatch):
    bucketed = []
    bucket_into = hashing.bucket_into

    def spy(appends, records, key_index):
        bucketed.append(records)
        return bucket_into(appends, records, key_index)

    monkeypatch.setattr(hashing, "bucket_into", spy)
    left, right = inputs(backend)
    join = HybridGraceNestedLoopsJoin(
        backend, BUDGET, left_intensity=1.0, right_intensity=1.0
    )
    first, second = join.join(left, right), join.join(left, right)
    assert first.partitions > 1
    assert first.output.records == second.output.records
    assert len(first.output.records) == 1_500
    assert len(bucketed) == 2
    assert bucketed[0] is left.records
    assert bucketed[1] is right.records


def observe(backend_name, intensities, streaming):
    backend = make_backend(backend_name, PersistentMemoryDevice())
    left, right = inputs(backend)
    x, y = intensities
    join = HybridGraceNestedLoopsJoin(
        backend, BUDGET, left_intensity=x, right_intensity=y
    )
    streamed = mock.patch(
        "repro.joins.base.partition_source", streaming_partition_source
    )
    with streamed if streaming else contextlib.nullcontext():
        result = join.join(left, right)
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
    return result.output.records, result.partitions, result.io.as_dict(), stores


@pytest.mark.parametrize("intensities", [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)])
@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
def test_a_join_from_the_memo_matches_the_streaming_pass(backend_name, intensities):
    assert observe(backend_name, intensities, False) == observe(
        backend_name, intensities, True
    )
