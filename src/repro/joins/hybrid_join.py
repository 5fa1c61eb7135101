"""Hybrid Grace/nested-loops join (the paper's ``HybJ``, Section 2.2.1).

The computation is split into a write-inducing phase based on Grace join
and a read-only phase based on block nested loops.  A fraction x of the
left input and a fraction y of the right input are hash-partitioned and
joined partition-wise; while each left partition is in memory, the
unpartitioned remainder of the right input is also streamed past it
(piggybacking Tx ⋈ V1−y onto the Grace phase).  Finally the unpartitioned
remainder of the left input is joined against the whole right input with
block nested loops.

The pair (x, y) is the algorithm's write intensity.  When omitted it is
chosen with the paper's Figure 2 heuristics
(:func:`repro.joins.cost.hybrid_join_heuristic_intensities`).
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.joins import cost
from repro.joins.base import JoinAlgorithm, JoinResult
from repro.joins.common import build_hash_table, probe_into
from repro.storage.collection import PersistentCollection


class HybridGraceNestedLoopsJoin(JoinAlgorithm):
    """Hybrid Grace/nested-loops equi-join.

    Args:
        left_intensity: fraction x of the left (smaller) input handled by
            Grace join.
        right_intensity: fraction y of the right (larger) input handled by
            Grace join.
        Both default to ``None``, meaning "choose with the Figure 2
        heuristics at join time".
    """

    short_name = "HybJ"
    write_limited = True

    def __init__(
        self,
        *args,
        left_intensity: float | None = None,
        right_intensity: float | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        for label, value in (("left", left_intensity), ("right", right_intensity)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{label} write intensity must lie in [0, 1], got {value}"
                )
        self.left_intensity = left_intensity
        self.right_intensity = right_intensity

    def resolve_intensities(
        self, left: PersistentCollection, right: PersistentCollection
    ) -> tuple[float, float]:
        """The (x, y) pair used for a given pair of inputs."""
        if self.left_intensity is not None and self.right_intensity is not None:
            return self.left_intensity, self.right_intensity
        heuristic_x, heuristic_y = cost.hybrid_join_heuristic_intensities(
            max(left.num_buffers, 1.0),
            max(right.num_buffers, 1.0),
            max(self.memory_buffers, 2.0),
            self.backend.device.write_read_ratio,
        )
        x = self.left_intensity if self.left_intensity is not None else heuristic_x
        y = self.right_intensity if self.right_intensity is not None else heuristic_y
        return x, y

    def _execute(
        self,
        output: PersistentCollection,
        left: PersistentCollection,
        right: PersistentCollection,
    ) -> JoinResult:
        # The boundaries are sized from the estimates; every loop below
        # stops on an exhausted scan.
        x, y = self.resolve_intensities(left, right)
        left_boundary = int(round(left.estimated_records * x))
        right_boundary = int(round(right.estimated_records * y))

        num_partitions = 0
        if left_boundary > 0:
            num_partitions = self.num_partitions_for(left_boundary)

            # Phase 1: partition the Grace fractions of both inputs.
            left_parts, right_parts, _ = self._partition_inputs(
                left,
                right,
                num_partitions,
                output.name,
                stops=(left_boundary, right_boundary),
            )

            # Phase 2: partition-wise Grace join, piggybacking the scan of
            # the unpartitioned right remainder (Tx join V1-y) onto each
            # in-memory left partition.  An empty left partition matches
            # nothing, so neither scan is made for it.
            for left_part, right_part in zip(left_parts, right_parts):
                if right_part is None:
                    continue
                table = build_hash_table(left_part.scan(), self.left_key)
                probe_into(output, table, right_part.scan_blocks(), self.right_key)
                remainder = right.scan_blocks(start=right_boundary)
                probe_into(output, table, remainder, self.right_key)
        # A lone right Grace fraction (x = 0, y > 0) has no partitioned left
        # counterpart: the nested-loops phase covers it, so nothing is
        # materialized for it.  This mirrors the cost model, where a lone
        # y > 0 only adds wasted writes.

        # Phase 3: block nested loops of the unpartitioned left remainder
        # against the entire right input.
        iterations = num_partitions + self._nested_loops(
            left, right, left_boundary, output
        )

        output.seal()
        return JoinResult(
            output=output,
            io=None,
            partitions=num_partitions,
            iterations=iterations,
            details={"left_intensity": x, "right_intensity": y},
        )

    def estimated_cost_ns(self, left_buffers: float, right_buffers: float) -> float:
        lam = self.backend.device.write_read_ratio
        memory = max(self.memory_buffers, 2.0)
        if self.left_intensity is not None and self.right_intensity is not None:
            x, y = self.left_intensity, self.right_intensity
        else:
            x, y = cost.hybrid_join_heuristic_intensities(
                left_buffers, right_buffers, memory, lam
            )
        return cost.hybrid_join_cost(
            x,
            y,
            left_buffers,
            right_buffers,
            memory,
            read_cost=self.backend.device.latency.read_ns,
            lam=lam,
        )
