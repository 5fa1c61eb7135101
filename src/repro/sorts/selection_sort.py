"""Multi-pass selection sort: the write-minimal building block.

The generalization of selection sort described in Section 2.1.1: with a
budget of M buffers the algorithm repeatedly scans the input, each pass
extracting the next M smallest records (by a strict ``(key, position)``
order so duplicates are handled exactly once) and appending them to the
output.  Every record is written exactly once, at its final location, at
the price of |T|/M read passes.

The simulator charges every one of those passes but computes them once:
the passes come from the ranked selection kernel
(:func:`~repro.sorts.heaps.ranked_passes`), which ranks the input on its
first pass and charges each later one a full rescan without reading it
again (``charge_rescan``: the counters of a drained scan).  A DEFERRED
input's rescan is a replay, so each pass pays one replay, like the full
selection scan it stands for.
"""

from __future__ import annotations

from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.heaps import ranked_passes
from repro.storage.collection import PersistentCollection


def selection_passes(
    collection: PersistentCollection,
    workspace_records: int,
    key_fn,
    start: int = 0,
    stop: int | None = None,
):
    """Lazily yield a slice of ``collection`` in sorted order, one pass at a time.

    Each pass re-reads the slice (charging reads) and yields the next
    batch of minimum records as a sorted list; nothing is written.
    Selection sort appends every batch to its output; segment sort pipes
    the batches straight into its final merge, which is how it avoids
    materializing the selection segment as an intermediate run.
    """
    for batch, _, _ in ranked_passes(
        collection, workspace_records, key_fn, start, stop
    ):
        yield batch


class SelectionSort(SortAlgorithm):
    """The pure multi-pass selection sort (minimum writes, maximum reads)."""

    short_name = "SelS"
    write_limited = True

    def _execute(
        self, output: PersistentCollection, collection: PersistentCollection
    ) -> SortResult:
        passes = 0
        for passes, batch in enumerate(
            selection_passes(collection, self.workspace_records, self.key_fn), 1
        ):
            output.extend(batch)
        output.seal()
        return SortResult(
            output=output,
            io=None,
            runs_generated=0,
            merge_passes=0,
            input_scans=passes,
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.selection_sort_cost(
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
