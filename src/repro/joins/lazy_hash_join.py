"""Lazy hash join (the paper's ``LaJ``, Section 2.2.3).

Lazy hash join follows the iteration structure of simple hash join but,
instead of writing back the records that do not belong to the current
partition, it re-reads the whole input on the next iteration.  It tracks
the rescan penalty against the write savings and, once the penalty
catches up (Eq. 11; see :func:`repro.joins.cost.lazy_hash_materialization_iteration`
for the corrected closed form), it materializes the still-unprocessed
remainder as new, smaller inputs and reverts to being lazy.
"""

from __future__ import annotations

from repro.joins import cost
from repro.joins.hash_join import SimpleHashJoin


class LazyHashJoin(SimpleHashJoin):
    """Hash join that trades intermediate writes for input rescans."""

    short_name = "LaJ"
    write_limited = True

    def _materialize_after(self, lazy_iterations: int, remaining: int) -> bool:
        lam = self.backend.device.write_read_ratio
        threshold = max(1, cost.lazy_hash_materialization_iteration(remaining, lam))
        return lazy_iterations >= threshold

    def _details(self, materializations: int) -> dict:
        return {"intermediate_materializations": materializations}

    def estimated_cost_ns(self, left_buffers: float, right_buffers: float) -> float:
        return cost.lazy_hash_join_cost(
            left_buffers,
            right_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
