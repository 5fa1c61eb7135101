"""External mergesort with replacement selection (the paper's ``ExMS``).

This is the symmetric-I/O baseline of Section 2.1: run generation fully
reads the input and writes it back as sorted runs (of roughly twice the
memory size thanks to replacement selection), and each merge pass reads
and rewrites the whole data set.  Over a sealed settled input the runs
come from the input's derivation memo (:func:`generate_input_runs`): the
read and the run writes are charged on every sort, the runs are cut once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.heaps import replacement_selection_runs, sorted_runs
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet, merge_runs


def generate_runs_replacement_selection(
    records: Iterable[tuple],
    runset: RunSet,
    capacity_records: int,
    key_fn,
) -> int:
    """Generate sorted runs from ``records`` into ``runset``.

    Returns the number of runs in ``runset``.  The streaming path of
    :func:`generate_input_runs` and the replacement-selection region of
    hybrid sort, whose input is the stream its selection region displaces.
    Each finished run is written with one batched append.
    """
    for run in replacement_selection_runs(records, capacity_records, key_fn):
        runset.write_sorted_run(run)
    return len(runset)


def generate_input_runs(
    collection: PersistentCollection,
    runset: RunSet,
    capacity_records: int,
    key_index: int,
    stop: int | None = None,
) -> int:
    """Generate the sorted runs of ``collection``'s first ``stop`` records.

    Writes and returns what :func:`generate_runs_replacement_selection`
    over ``collection.scan(0, stop)`` does.  A DEFERRED or unsealed input
    streams through it.  A sealed settled one is charged one
    :meth:`~repro.storage.collection.PersistentCollection.charge_rescan`
    of the clipped range -- the drained scan's counters -- and each run of
    its memoized :func:`~repro.sorts.heaps.sorted_runs`, keyed by the
    clipped stop, the workspace and the key attribute, is written with
    one batched append, as the streaming path writes it.
    """
    if collection.is_deferred or not collection.is_sealed:
        return generate_runs_replacement_selection(
            collection.scan(0, stop), runset, capacity_records, itemgetter(key_index)
        )
    _, stop, _ = slice(0, stop).indices(len(collection))
    collection.charge_rescan(0, stop)
    for run in collection.derived(sorted_runs, stop, capacity_records, key_index):
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
        generate_input_runs(
            collection, runset, self.workspace_records, self.schema.key_index
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
