"""Common scaffolding for the join algorithms.

Every join follows the run contract of
:class:`~repro.storage.algorithm.Algorithm`: construct it with a
persistence backend and a DRAM budget, then call
:meth:`JoinAlgorithm.join` with the two input collections.  By
convention the *left* input is the smaller one (the paper's T) and the
*right* input the larger one (V); the algorithms do not re-order them, so
callers control which side is built against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from repro.exceptions import InsufficientMemoryError
from repro.joins.common import (
    build_hash_table,
    joined_schema,
    partition_into,
    probe_into,
)
from repro.joins.cost import PARTITION_FUDGE_FACTOR
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.metrics import IOResult, IOSnapshot
from repro.storage.algorithm import Algorithm
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


@dataclass
class JoinResult(IOResult):
    """Outcome of one join execution."""

    #: The join output collection (concatenated left+right records).
    output: PersistentCollection
    #: Device I/O attributable to this execution.
    io: IOSnapshot
    #: Number of hash partitions the algorithm used (0 for nested loops).
    partitions: int = 0
    #: Number of passes/iterations over the inputs.
    iterations: int = 0
    #: Algorithm-specific extras.
    details: dict = field(default_factory=dict)

    @property
    def matches(self) -> int:
        return len(self.output.records)


class JoinAlgorithm(Algorithm):
    """Base class for all equi-join algorithms.

    Args:
        backend: persistence backend hosting partitions, intermediates and
            (optionally) the join output.
        budget: DRAM budget; bounds hash tables and nested-loop blocks.
        left_schema / right_schema: record schemas of the two inputs.
        materialize_output / bufferpool: see
            :class:`~repro.storage.algorithm.Algorithm`.
    """

    short_name: str = "join"
    result_type = JoinResult

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        left_schema: Schema = WISCONSIN_SCHEMA,
        right_schema: Schema = WISCONSIN_SCHEMA,
        materialize_output: bool = True,
        bufferpool: Bufferpool | None = None,
    ) -> None:
        super().__init__(backend, budget, materialize_output, bufferpool)
        self.left_schema = left_schema
        self.right_schema = right_schema
        self.output_schema = joined_schema(left_schema, right_schema)
        #: Join-key extractors, bound once per join.
        self.left_key = itemgetter(left_schema.key_index)
        self.right_key = itemgetter(right_schema.key_index)
        self.left_workspace_records = budget.record_capacity(left_schema)
        if self.left_workspace_records < 1:
            raise InsufficientMemoryError(
                f"{self.short_name}: budget of {budget.nbytes} bytes holds no records"
            )

    def join(
        self, left: PersistentCollection, right: PersistentCollection
    ) -> JoinResult:
        """Join ``left`` (the smaller input, T) with ``right`` (V)."""
        return self._run(left, right)

    def _output_name(self, left_name: str, right_name: str) -> str:
        return f"{left_name}-join-{right_name}-{self.short_name.lower()}"

    def num_partitions_for(self, records: int) -> int:
        """Partition count so each hash table over ``records`` fits in DRAM.

        A partition grows by the paper's f once a hash table is built over
        it, so one holds the workspace divided by f.
        """
        capacity = max(1, int(self.left_workspace_records / PARTITION_FUDGE_FACTOR))
        return max(1, -(-records // capacity))  # ceiling division

    def _partition_inputs(
        self,
        left: PersistentCollection,
        right: PersistentCollection,
        num_partitions: int,
        prefix: str,
        stops: tuple[int | None, int | None] = (None, None),
        materialized: int | None = None,
    ) -> tuple[list, list, list[int]]:
        """Hash-partition both inputs onto persistent memory.

        Returns the left and the right partitions, scratch stores of the
        run, written from the first ``stops`` records of each input through
        :func:`partition_into`, and the left partitions' record counts.
        Only the first ``materialized`` partition indexes are written
        (segmented Grace join materializes only some); the others are
        ``None`` and their records are skipped.  The left input goes first,
        and a right partition whose left partition holds no record is
        ``None`` too: none of its records can match.  When no right
        partition is left to write, the right input is not scanned.
        """
        if materialized is None:
            materialized = num_partitions
        live = [index < materialized for index in range(num_partitions)]
        sides = []
        for source, key, side, stop in zip(
            (left, right), (self.left_key, self.right_key), "LR", stops
        ):
            if side == "R" and not any(live):
                sides.append(([None] * num_partitions, None))
                break
            partitions = [
                self._scratch_collection(f"{prefix}-{side}-p{index}", source.schema)
                if live[index]
                else None
                for index in range(num_partitions)
            ]
            counts = partition_into(source.scan_blocks(stop=stop), key, partitions)
            for partition in partitions:
                if partition is not None:
                    partition.seal()
            sides.append((partitions, counts))
            live = [alive and count > 0 for alive, count in zip(live, counts)]
        (left_parts, occupancy), (right_parts, _) = sides
        return left_parts, right_parts, occupancy

    def _nested_loops(
        self,
        left: PersistentCollection,
        right: PersistentCollection,
        start: int,
        output: PersistentCollection,
    ) -> int:
        """Block nested loops of ``left`` from ``start`` against all of ``right``.

        ``left`` is cut into workspace-sized slices until one comes back
        short, so the loop stops on an exhausted scan whatever the input's
        estimate says; a settled input's empty slice past its end charges
        nothing.  Returns the number of slices joined.

        Each slice is read, then ``right`` is rescanned for it, in that
        order.  A lone slice probes the rescan as it streams.  Otherwise
        the first rescan is kept and every later one is only charged
        (:meth:`PersistentCollection.charge_rescan`), and ``right`` is
        probed once, against one table of every slice's records tagged
        with its slice; the matches are written slice by slice, so the
        records, their order and the I/O are those of one probe per
        slice.  Hashing a slice is a DRAM-side optimization: the I/O
        profile is identical to tuple-at-a-time nested loops, only the
        Python CPU time changes.
        """
        block_records = self.left_workspace_records
        block = list(left.scan(start=start, stop=start + block_records))
        if not block:
            return 0
        if len(block) < block_records:
            table = build_hash_table(block, self.left_key)
            probe_into(output, table, right.scan_blocks(), self.right_key)
            return 1
        slices = [block]
        probe = list(right.scan_blocks())
        while len(block) == block_records:
            start += block_records
            block = list(left.scan(start=start, stop=start + block_records))
            if not block:
                break
            right.charge_rescan()
            slices.append(block)
        left_key, right_key = self.left_key, self.right_key
        tagged: dict[int, list[tuple[int, tuple]]] = defaultdict(list)
        for index, records in enumerate(slices):
            for record in records:
                tagged[left_key(record)].append((index, record))
        joined: list[list[tuple]] = [[] for _ in slices]
        appends = [matches.append for matches in joined]
        get = tagged.get
        for record in chain.from_iterable(probe):
            for index, match in get(right_key(record), ()):
                appends[index](match + record)
        for matches in joined:
            output.extend(matches)
        return len(slices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(workspace_records={self.left_workspace_records}, "
            f"backend={self.backend.name})"
        )
