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
from repro.joins.common import build_hash_table, probe_block
from repro.storage.collection import AppendBuffer, PersistentCollection


class NestedLoopsJoin(JoinAlgorithm):
    """Block nested-loops equi-join."""

    short_name = "NLJ"
    write_limited = False

    def _execute(
        self, left: PersistentCollection, right: PersistentCollection
    ) -> JoinResult:
        output = self._make_output(left.name, right.name)
        if len(right) == 0:
            output.seal()
            return JoinResult(output=output, io=None)

        block_records = self.left_workspace_records
        # A deferred build only knows its *estimated* cardinality, so its
        # len() cannot bound the loop (trusting it could truncate the
        # build side); terminate on an exhausted slice instead.  Settled
        # collections keep the exact count-bounded loop.
        known_total = None if left.is_deferred else len(left)
        matches = AppendBuffer(output)
        iterations = 0
        block_start = 0
        while known_total is None or block_start < known_total:
            block = list(
                left.scan(
                    start=block_start, stop=block_start + block_records
                )
            )
            if not block:
                break
            iterations += 1
            # Hashing the block is a DRAM-side optimization: the I/O profile
            # is identical to tuple-at-a-time nested loops, only the Python
            # CPU time changes.
            table = build_hash_table(block, self.left_key)
            for right_block in right.scan_blocks():
                matches.extend(probe_block(table, right_block, self.right_key))
            if len(block) < block_records:
                break
            block_start += block_records
        matches.seal()
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
