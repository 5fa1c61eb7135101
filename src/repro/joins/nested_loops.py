"""Block nested-loops join (the paper's ``NLJ``).

The read-only baseline: the smaller input is consumed in DRAM-sized
blocks; for every block the larger input is scanned in full.  The only
persistent-memory writes are those of the join output itself, which makes
NLJ the floor against which the write-limited joins compare their write
counts.
"""

from __future__ import annotations

from repro.joins import cost
from repro.joins.base import JoinAlgorithm, JoinResult
from repro.storage.collection import PersistentCollection


class NestedLoopsJoin(JoinAlgorithm):
    """Block nested-loops equi-join."""

    short_name = "NLJ"
    write_limited = False

    def _execute(
        self,
        output: PersistentCollection,
        left: PersistentCollection,
        right: PersistentCollection,
    ) -> JoinResult:
        iterations = self._nested_loops(left, right, 0, output)
        output.seal()
        return JoinResult(
            output=output,
            io=None,
            partitions=0,
            iterations=iterations,
        )

    def estimated_cost_ns(self, left_buffers: float, right_buffers: float) -> float:
        return cost.nested_loops_cost(
            left_buffers,
            right_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
