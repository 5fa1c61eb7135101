"""Segmented Grace join (the paper's ``SegJ``, Section 2.2.2).

Instead of choosing a fraction of each *input* (as hybrid join does), the
algorithm operates at the partition level: of the k hash partitions, only
x are materialized and processed Grace-style; the remaining k − x are
processed by repeatedly re-scanning both inputs and filtering on the fly,
trading writes for reads.  Eq. 10 bounds the x for which this beats plain
Grace join; regardless, x is a direct write-intensity knob.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.joins import cost
from repro.joins.base import JoinAlgorithm, JoinResult
from repro.joins.common import build_hash_table, partition_records, probe_into
from repro.storage.collection import PersistentCollection

#: Default fraction of partitions materialized.
DEFAULT_MATERIALIZED_FRACTION = 0.5


class SegmentedGraceJoin(JoinAlgorithm):
    """Grace join that materializes only a chosen share of its partitions.

    Args:
        write_intensity: fraction of the k partitions that are materialized
            (0 means a fully lazy, re-scanning join; 1 means plain Grace
            join).
    """

    short_name = "SegJ"
    write_limited = True

    def __init__(
        self,
        *args,
        write_intensity: float = DEFAULT_MATERIALIZED_FRACTION,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 <= write_intensity <= 1.0:
            raise ConfigurationError(
                f"write intensity must lie in [0, 1], got {write_intensity}"
            )
        self.write_intensity = write_intensity

    def _execute(
        self,
        output: PersistentCollection,
        left: PersistentCollection,
        right: PersistentCollection,
    ) -> JoinResult:
        num_partitions = self.num_partitions_for(left.estimated_records)
        materialized = int(round(num_partitions * self.write_intensity))
        materialized = min(max(materialized, 0), num_partitions)

        # Phase 1: single scan of both inputs, materializing only the
        # selected partitions; records of the other partitions, and of a
        # partition without a build record, are skipped.
        left_parts, right_parts, occupancy = self._partition_inputs(
            left, right, num_partitions, output.name, materialized=materialized
        )

        # Phase 2: Grace-style processing of the materialized partitions.
        for index in range(materialized):
            if right_parts[index] is None:  # an empty build partition
                continue
            table = build_hash_table(left_parts[index].scan(), self.left_key)
            probe_into(output, table, right_parts[index].scan_blocks(), self.right_key)

        # Phase 3: the remaining partitions are processed by re-scanning the
        # primary inputs and filtering the build side on the fly; the table
        # holds only partition ``index``, so the probe side needs no filter.
        # A partition without a build record is not rescanned.  A settled
        # build side is charged its rescan and hands over the partition's
        # memoized bucket, so it is hashed once for every rescan.
        rescans = 0
        for index in range(materialized, num_partitions):
            if not occupancy[index]:
                continue
            rescans += 1
            build = partition_records(
                left, self.left_schema.key_index, num_partitions, index
            )
            table = build_hash_table(build, self.left_key)
            probe_into(output, table, right.scan_blocks(), self.right_key)

        output.seal()
        return JoinResult(
            output=output,
            io=None,
            partitions=num_partitions,
            iterations=num_partitions,
            details={
                "write_intensity": self.write_intensity,
                "materialized_partitions": materialized,
                "rescans": rescans,
            },
        )

    def estimated_cost_ns(self, left_buffers: float, right_buffers: float) -> float:
        memory = max(self.memory_buffers, 2.0)
        num_partitions = max(1.0, left_buffers / memory)
        return cost.segmented_grace_cost(
            self.write_intensity * num_partitions,
            left_buffers,
            right_buffers,
            num_partitions,
            read_cost=self.backend.device.latency.read_ns,
            lam=self.backend.device.write_read_ratio,
        )
