"""Lazy sort (the paper's ``LaS``, Algorithm 2).

Lazy sort is the dynamic variant of the multi-pass selection sort.  It
keeps rescanning the input to extract the next M smallest records, paying
a read penalty instead of writing intermediate results.  It tracks how
much it has saved by not materializing and how much the rescans have cost;
once the penalty catches up with the savings (Eq. 5 of the paper,
``n = floor(|T| lambda / (M (lambda + 1)))``), it materializes the still
unprocessed remainder as a smaller intermediate input, and reverts to
being lazy on that input.

Every pass is charged as a full rescan, but the passes over a source are
computed once: they come from one ranking of that source by the ranked
selection kernel (:func:`~repro.sorts.heaps.ranked_passes`), and each
later pass is one charge-only rescan (``charge_rescan``), not a drained
scan.  A materializing pass is served too: the order in which it
displaces records lays out the intermediate and so decides later
tie-breaks, and the kernel derives that order from the ranking.  So the
input -- MEMORY, MATERIALIZED or DEFERRED -- and each intermediate are
ranked once.  A deferred input has no buffers of its own, so lazy sort
materializes it on the first pass that leaves more than M records.

A deferred input's length is unknown until a scan of it ends, so the
first pass, which sees every record, counts it: the records it keeps plus
the ones it displaces.  Only that pass's materialization decision reads
the estimate.  Intermediates are scratch stores of the run, dropped once
replaced and when the run ends.
"""

from __future__ import annotations

from repro.sorts import cost
from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.heaps import ranked_passes
from repro.storage.collection import PersistentCollection


class LazySort(SortAlgorithm):
    """Lazy sort: selection scans with cost-driven intermediate materialization."""

    short_name = "LaS"
    write_limited = True

    def _execute(
        self, output: PersistentCollection, collection: PersistentCollection
    ) -> SortResult:
        # A deferred input's length is counted by its first pass.
        total_records = None if collection.is_deferred else len(collection)
        lam = self.backend.device.write_read_ratio
        source = collection
        emitted = 0
        iteration = 1
        scans = 0
        intermediates = 0
        materialization_points: list[int] = []
        # The ranked passes over the current source, once one is served.
        passes = None

        while total_records is None or emitted < total_records:
            # Until then the first pass decides by the estimate.
            remaining = (
                collection.estimated_records
                if total_records is None
                else total_records - emitted
            )
            materialization_iteration = max(
                1,
                cost.lazy_sort_materialization_iteration(
                    max(source.num_buffers, 1.0),
                    max(self.memory_buffers, 2.0),
                    lam,
                ),
            )
            # Materializing is pointless when the current pass will
            # finish the job anyway; the cost model's floor() would
            # suggest it for tiny remainders, so guard explicitly.
            materialize = (
                iteration >= materialization_iteration
                and remaining > self.workspace_records
            )
            if passes is None:
                passes = ranked_passes(source, self.workspace_records, self.key_fn)
            # An empty deferred input yields no pass; its one scan still ran.
            batch, _, displaced = next(passes, ([], None, list))
            # A displaced record is not among the current M minimums but
            # is still pending: when materializing, it belongs to the
            # intermediate input, in the order it was displaced.  The
            # first pass over a deferred input takes them to count it.
            spill = displaced() if materialize or total_records is None else []
            if total_records is None:
                total_records = len(batch) + len(spill)
            # An over-declared deferred input may leave nothing to
            # materialize.
            materialize = materialize and bool(spill)
            if materialize:
                intermediates += 1
                intermediate = self._scratch_collection(
                    f"{collection.name}-las-intermediate-{intermediates}",
                    self.schema,
                )
                intermediate.extend(spill)
            scans += 1
            output.extend(batch)
            emitted += len(batch)
            if not batch:
                break

            if materialize:
                intermediate.seal()
                materialization_points.append(emitted)
                # A replaced intermediate is dropped now, not when the run
                # ends.  Dropping charges no I/O.
                if source is not collection:
                    source.drop()
                source = intermediate
                passes = None
                iteration = 1
            else:
                iteration += 1

        output.seal()
        return SortResult(
            output=output,
            io=None,
            runs_generated=0,
            merge_passes=0,
            input_scans=scans,
            details={
                "intermediate_materializations": intermediates,
                "materialization_points": materialization_points,
            },
        )

    def estimated_cost_ns(self, input_buffers: float) -> float:
        return cost.lazy_sort_cost(
            input_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
