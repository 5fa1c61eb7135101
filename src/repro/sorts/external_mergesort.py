"""External mergesort with replacement selection (the paper's ``ExMS``).

This is the symmetric-I/O baseline of Section 2.1: run generation fully
reads the input and writes it back as sorted runs (of roughly twice the
memory size thanks to replacement selection), and each merge pass reads
and rewrites the whole data set.
"""

from __future__ import annotations

from typing import Iterable

from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.heaps import replacement_selection_runs
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet, merge_runs


def generate_runs_replacement_selection(
    records: Iterable[tuple],
    runset: RunSet,
    capacity_records: int,
    key_fn,
) -> int:
    """Generate sorted runs from ``records`` into ``runset``.

    Returns the number of runs in ``runset``.  Shared by external
    mergesort, the mergesort segment of segment sort and the
    replacement-selection region of hybrid sort.  Each finished run is
    written with one batched append.
    """
    for run in replacement_selection_runs(records, capacity_records, key_fn):
        runset.write_sorted_run(run)
    return len(runset)


class ExternalMergeSort(SortAlgorithm):
    """Standard external mergesort using replacement selection (``ExMS``)."""

    short_name = "ExMS"
    write_limited = False

    def _execute(
        self, output: PersistentCollection, collection: PersistentCollection
    ) -> SortResult:
        runset = RunSet(
            self.backend,
            schema=self.schema,
            prefix=f"{collection.name}-exms",
            owner=self.scratch,
        )
        generate_runs_replacement_selection(
            collection.scan(),
            runset,
            self.workspace_records,
            self.key_fn,
        )
        merge_passes = merge_runs(
            runset.runs,
            output,
            fan_in=self.budget.merge_fan_in(),
            backend=self.backend,
            schema=self.schema,
            key=self.key_fn,
            owner=self.scratch,
        )
        return SortResult(
            output=output,
            io=None,
            runs_generated=len(runset),
            merge_passes=merge_passes,
            input_scans=1,
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.external_mergesort_cost(
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
