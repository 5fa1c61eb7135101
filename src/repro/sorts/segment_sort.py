"""Segment sort (the paper's ``SegS``, Section 2.1.1).

The input is split at a *write intensity* x ∈ (0, 1): the first x-fraction
is sorted with external mergesort (write-incurring, fast), the remaining
(1 − x)-fraction with the multi-pass selection sort (write-limited, more
reads).  The selection segment is never materialized as a run: it is
produced lazily, in sorted order, and piped straight into the final merge
together with the mergesort runs, so the algorithm writes x·|T| buffers of
runs plus the output -- the write profile the paper reports.

With x = 0 the algorithm degenerates to pure selection sort and performs
the minimum number of writes (one per input buffer); with x = 1 it is
plain external mergesort.  When no intensity is supplied the cost-optimal
value from Eq. 4 of the paper is used.

Neither segment recomputes what a sealed settled input has already given
it: the mergesort runs of its prefix come from the input's derivation memo
(:func:`~repro.sorts.external_mergesort.generate_input_runs`) and the
selection passes from one ranking (:func:`~repro.sorts.heaps.ranked_passes`).
Every read and write is still charged on every sort; the memo is simulator
bookkeeping, not modelled DRAM.
"""

from __future__ import annotations

import itertools

from repro.exceptions import ConfigurationError, CostModelError
from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.external_mergesort import generate_input_runs
from repro.sorts.selection_sort import selection_passes
from repro.storage.collection import PersistentCollection
from repro.storage.runs import RunSet, merge_runs, merge_streams


class SegmentSort(SortAlgorithm):
    """Segment sort: external mergesort on a prefix, selection sort on the rest.

    Args:
        write_intensity: fraction x of the input processed with external
            mergesort.  ``None`` selects the Eq. 4 cost-optimal value at
            sort time (falling back to 0.5 when the optimum is undefined
            for the given |T|, M and λ).
    """

    short_name = "SegS"
    write_limited = True

    def __init__(self, *args, write_intensity: float | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if write_intensity is not None and not 0.0 <= write_intensity <= 1.0:
            raise ConfigurationError(
                f"write intensity must lie in [0, 1], got {write_intensity}"
            )
        self.write_intensity = write_intensity

    def resolve_intensity(self, input_buffers: float) -> float:
        """The write intensity used for an input of the given size."""
        if self.write_intensity is not None:
            return self.write_intensity
        lam = self.backend.device.write_read_ratio
        try:
            return cost.optimal_segment_intensity(
                input_buffers, self.memory_buffers, lam
            )
        except CostModelError:
            return 0.5

    def _execute(
        self, output: PersistentCollection, collection: PersistentCollection
    ) -> SortResult:
        total_records = collection.estimated_records
        intensity = self.resolve_intensity(collection.num_buffers)
        boundary = int(round(total_records * intensity))
        # The boundary comes from an estimate, so a pure mergesort reads
        # the input to its end, not to the boundary.
        mergesort_only = boundary >= total_records
        runset = RunSet(
            self.backend,
            schema=self.schema,
            prefix=f"{collection.name}-segs",
            owner=self.scratch,
        )

        # Write-incurring segment: replacement-selection run generation,
        # cut once per sealed input and workspace, written every sort.
        mergesort_scans = int(boundary > 0 or mergesort_only)
        if mergesort_scans:
            generate_input_runs(
                collection,
                runset,
                self.workspace_records,
                self.schema.key_index,
                stop=None if mergesort_only else boundary,
            )

        merge_passes = 0
        selection_scans = 0
        if mergesort_only:
            # Pure external mergesort.
            merge_passes = merge_runs(
                runset.runs,
                output,
                fan_in=self.budget.merge_fan_in(),
                backend=self.backend,
                schema=self.schema,
                key=self.key_fn,
                owner=self.scratch,
            )
        else:
            # The selection segment is produced lazily in sorted order and
            # merged with the (possibly pre-reduced) mergesort runs.  Its
            # read passes -- its size divided by the workspace, as in Eq.
            # 1's quadratic term -- are counted as they run: the size of a
            # deferred segment is known only once a pass has read it.
            def selection_batches():
                nonlocal selection_scans
                for batch in selection_passes(
                    collection, self.workspace_records, self.key_fn, start=boundary
                ):
                    selection_scans += 1
                    yield batch

            fan_in = self.budget.merge_fan_in()
            runs = list(runset.runs)
            if len(runs) + 1 > fan_in:
                # Reduce the mergesort runs so the final pass (runs plus the
                # selection stream) fits in the merge fan-in.
                reduced = RunSet(
                    self.backend,
                    schema=self.schema,
                    prefix=f"{collection.name}-segs-reduced",
                    owner=self.scratch,
                )
                reduced_output = reduced.new_run()
                merge_passes += merge_runs(
                    runs,
                    reduced_output,
                    fan_in=fan_in,
                    backend=self.backend,
                    schema=self.schema,
                    key=self.key_fn,
                    owner=self.scratch,
                )
                runs = [reduced_output]
            streams = [run.scan() for run in runs]
            streams.append(itertools.chain.from_iterable(selection_batches()))
            merge_passes += 1
            output.extend(merge_streams(streams, self.key_fn))
            output.seal()
            # An empty selection segment is still read once.
            selection_scans = max(1, selection_scans)

        return SortResult(
            output=output,
            io=None,
            runs_generated=len(runset),
            merge_passes=merge_passes,
            input_scans=mergesort_scans + selection_scans,
            details={"write_intensity": intensity, "boundary": boundary},
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        intensity = self.resolve_intensity(input_buffers)
        return cost.segment_sort_cost(
            intensity,
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
