"""Grace hash join (the paper's ``GJ``).

The symmetric-I/O baseline for partitioned joins: both inputs are fully
scanned and hash-partitioned onto persistent memory, then every partition
pair is read back, a hash table is built over the left partition and the
right partition probes it.  Total cost r (2 + λ)(|T| + |V|) plus the
output; the left input is partitioned first, and a right record whose left
partition is empty cannot match, so it is neither written nor read back
and the cost is an upper bound.

Every record is charged to be read and its partition written on every
run, but a settled input is hashed only once: its partitions are written
from its bucket memo
(:meth:`~repro.storage.collection.PersistentCollection.partitioned`).
"""

from __future__ import annotations

from repro.joins import cost
from repro.joins.base import JoinAlgorithm, JoinResult
from repro.joins.common import build_hash_table, probe_into
from repro.storage.collection import PersistentCollection


class GraceJoin(JoinAlgorithm):
    """Standard Grace hash join."""

    short_name = "GJ"
    write_limited = False

    def _execute(
        self,
        output: PersistentCollection,
        left: PersistentCollection,
        right: PersistentCollection,
    ) -> JoinResult:
        num_partitions = self.num_partitions_for(left.estimated_records)
        left_parts, right_parts, _ = self._partition_inputs(
            left, right, num_partitions, output.name
        )
        for left_part, right_part in zip(left_parts, right_parts):
            if right_part is None:  # an empty build partition
                continue
            table = build_hash_table(left_part.scan(), self.left_key)
            probe_into(output, table, right_part.scan_blocks(), self.right_key)
        output.seal()
        return JoinResult(
            output=output,
            io=None,
            partitions=num_partitions,
            iterations=num_partitions,
        )

    def estimated_cost_ns(self, left_buffers: float, right_buffers: float) -> float:
        return cost.grace_join_cost(
            left_buffers,
            right_buffers,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
