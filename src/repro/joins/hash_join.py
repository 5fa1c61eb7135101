"""Simple hash join (the paper's ``HJ``).

The join runs in k = |T|/M iterations.  In iteration i both inputs are
scanned: records of partition i are processed in memory (build on the left,
probe on the right), every other record is written back to a shrinking
backing-store collection that becomes the next iteration's input
(Table 1, "Standard hash join" columns).
"""

from __future__ import annotations

from repro.joins import cost
from repro.joins.base import JoinAlgorithm, JoinResult
from repro.joins.common import (
    build_hash_table,
    partition_records,
    probe_into,
    split_blocks,
)
from repro.storage.collection import PersistentCollection


class SimpleHashJoin(JoinAlgorithm):
    """Iterative hash join that offloads non-current partitions every pass."""

    short_name = "HJ"
    write_limited = False

    def _materialize_after(self, lazy_iterations: int, remaining: int) -> bool:
        """Whether this pass writes the later partitions back.

        Asked while ``remaining`` partitions (this one included, at least
        two) are left, ``lazy_iterations`` passes after the last write-back.
        """
        return True

    def _execute(
        self,
        output: PersistentCollection,
        left: PersistentCollection,
        right: PersistentCollection,
    ) -> JoinResult:
        num_partitions = max(
            1, -(-left.estimated_records // self.left_workspace_records)
        )
        sources = (left, right)
        lazy_iterations = materializations = 0
        for index in range(num_partitions):
            lazy_iterations += 1
            remaining = num_partitions - index
            spills = (None, None)
            if remaining > 1 and self._materialize_after(lazy_iterations, remaining):
                materializations += 1
                lazy_iterations = 0
                spills = tuple(
                    self._scratch_collection(
                        f"{output.name}-{self.short_name.lower()}"
                        f"-{side}{materializations}",
                        schema,
                    )
                    for side, schema in (
                        ("L", self.left_schema),
                        ("R", self.right_schema),
                    )
                )
            # Partition ``index`` is joined in DRAM; records of later
            # partitions go to the spills, when this pass writes them back.
            # A pass that writes none over a settled build side takes the
            # partition's memoized bucket.  The table holds only partition
            # ``index``, so the probe side is split only to write its spill.
            build = partition_records(
                sources[0],
                self.left_schema.key_index,
                num_partitions,
                index,
                spills[0],
            )
            table = build_hash_table(build, self.left_key)
            probe = sources[1].scan_blocks()
            if spills[1] is not None:
                probe = split_blocks(
                    probe,
                    self.right_schema.key_index,
                    num_partitions,
                    index,
                    spills[1],
                )
            probe_into(output, table, probe, self.right_key)
            if spills[0] is not None:
                for spill in spills:
                    spill.seal()
                sources = spills
        output.seal()
        return JoinResult(
            output=output,
            io=None,
            partitions=num_partitions,
            iterations=num_partitions,
            details=self._details(materializations),
        )

    def _details(self, materializations: int) -> dict:
        return {}

    def estimated_cost_ns(self, left_buffers: float, right_buffers: float) -> float:
        return cost.hash_join_cost(
            left_buffers,
            right_buffers,
            self.memory_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
