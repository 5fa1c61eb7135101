"""Grouped-aggregation operators over persistent collections.

Two strategies, mirroring the sort/join duality of the paper:

* :class:`SortedAggregation` is the *write-limited* strategy: it sorts the
  input on the grouping attribute with one of the Section 2.1 sorts
  (segment sort by default, output pipelined) and folds the sorted stream
  group by group.  Its persistent-memory writes are the aggregate output
  plus whatever the chosen sort spills.
* :class:`HashAggregation` is the *write-incurring* baseline: groups are
  accumulated in a DRAM hash table and, when the table exceeds the memory
  budget, whole partitions of accumulated state are spilled to persistent
  memory and re-read at the end.

Both run the generated kernels of :mod:`repro.aggregation.kernels`,
compiled once per ``(aggregate spec, group attribute)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.exceptions import ConfigurationError, InsufficientMemoryError
from repro.aggregation.kernels import compile_kernels
from repro.joins.common import partition_into
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.metrics import IOResult, IOSnapshot
from repro.sorts.segment_sort import SegmentSort
from repro.storage.algorithm import Algorithm
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


@dataclass
class AggregationResult(IOResult):
    """Outcome of one grouped aggregation."""

    #: Output collection: one record per group, ``(group_key, agg1, agg2, ...)``.
    output: PersistentCollection
    #: Device I/O attributable to this execution.
    io: IOSnapshot
    #: Number of distinct groups produced.
    groups: int = 0
    #: Number of spill partitions written (hash aggregation only).
    spills: int = 0
    details: dict = field(default_factory=dict)


class _AggregationBase(Algorithm):
    """Shared construction for the two strategies."""

    short_name = "aggregation"
    result_type = AggregationResult

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        group_index: int = 0,
        aggregates: dict[str, int] | None = None,
        schema: Schema = WISCONSIN_SCHEMA,
        materialize_output: bool = True,
        bufferpool: Bufferpool | None = None,
    ) -> None:
        """Configure the aggregation.

        Args:
            backend: persistence backend for spills and the output.
            budget: DRAM budget for accumulators / sort workspace.
            group_index: attribute position to group by.
            aggregates: mapping of aggregate name ("count", "sum", "min",
                "max", "avg") to the attribute index it is computed over.
                Defaults to ``{"count": group_index}``.
            schema: input record schema.
            materialize_output: write the per-group output to persistent
                memory (default) or keep it in DRAM.
            bufferpool: pool the operator registers its DRAM workspace with
                while running; a private pool over ``budget`` when omitted.
        """
        if not 0 <= group_index < schema.num_fields:
            raise ConfigurationError(
                f"group attribute {group_index} outside the schema's "
                f"{schema.num_fields} attributes"
            )
        super().__init__(backend, budget, materialize_output, bufferpool)
        self.schema = schema
        self.group_index = group_index
        spec = aggregates or {"count": group_index}
        for name, attribute in spec.items():
            if not 0 <= attribute < schema.num_fields:
                raise ConfigurationError(
                    f"aggregate {name!r} over attribute {attribute} outside schema"
                )
        #: The spec's generated kernels, shared by every operator built for
        #: the same spec and group attribute.
        self.kernels = compile_kernels(tuple(spec.items()), group_index)
        #: ``(aggregate, attribute)`` pairs in output order.
        self.aggregates = self.kernels.aggregates
        self.workspace_records = budget.record_capacity(schema)
        if self.workspace_records < 1:
            raise InsufficientMemoryError(
                f"{self.short_name}: budget holds no records"
            )
        self.output_schema = Schema(
            num_fields=1 + len(self.aggregates),
            field_bytes=schema.field_bytes,
            key_index=0,
        )

    def aggregate(self, collection: PersistentCollection) -> AggregationResult:
        """Aggregate ``collection`` and return the result with its I/O delta."""
        return self._run(collection)

    def _output_name(self, input_name: str) -> str:
        return f"{input_name}-groupby-{self.short_name.lower()}"


class SortedAggregation(_AggregationBase):
    """Write-limited aggregation: sort (pipelined) then stream group-by."""

    short_name = "SortAgg"
    write_limited = True

    def __init__(self, *args, sort_class=SegmentSort, **kwargs):
        super().__init__(*args, **kwargs)
        self.sort_class = sort_class

    def _execute(
        self, output: PersistentCollection, collection: PersistentCollection
    ) -> AggregationResult:
        group_schema = Schema(
            num_fields=self.schema.num_fields,
            field_bytes=self.schema.field_bytes,
            key_index=self.group_index,
        )
        sorter = self.sort_class(
            self.backend,
            self.budget,
            schema=group_schema,
            materialize_output=False,
        )
        sort_result = sorter.sort(collection)

        # A deferred input that turns out empty has no group to emit.
        output.extend(
            self.kernels.fold_sorted(
                chain.from_iterable(sort_result.output.scan_blocks())
            )
        )
        output.seal()
        return AggregationResult(
            output=output,
            io=None,
            groups=len(output),
            details={
                "sort": sorter.short_name,
                "sort_runs": sort_result.runs_generated,
                "sort_scans": sort_result.input_scans,
            },
        )


class HashAggregation(_AggregationBase):
    """Hash aggregation with partition spilling (write-incurring baseline)."""

    short_name = "HashAgg"
    write_limited = False

    #: Approximate DRAM bytes per in-flight group (key + accumulator states).
    GROUP_STATE_BYTES = 64

    #: Number of spill partitions new groups overflow into.
    SPILL_PARTITIONS = 8

    def _execute(
        self, output: PersistentCollection, collection: PersistentCollection
    ) -> AggregationResult:
        max_groups = max(1, self.budget.nbytes // self.GROUP_STATE_BYTES)
        fold_block = self.kernels.fold_block
        finish = self.kernels.finish
        spills = 0

        # A group's records are never split between the in-memory table and
        # the spills: once a key owns a table entry every later record with
        # that key folds into it, and keys first seen after the table holds
        # ``limit`` groups are spilled wholesale and re-aggregated in a later
        # pass.  Passes run depth first: a spill partition's own spills are
        # finished before its next sibling is sealed and read.
        pending = [(collection, "root", 0, max_groups)]
        while pending:
            source, label, depth, limit = pending.pop()
            if depth:
                spills += 1
                source.seal()
            table: dict = {}
            targets = [
                _Spill(
                    partial(
                        self._scratch_collection,
                        f"{collection.name}-hashagg-spill-{depth}-{label}-{index}",
                        self.schema,
                    )
                )
                for index in range(self.SPILL_PARTITIONS)
            ]
            spilled_records = sum(
                partition_into(
                    _fold_blocks(source.scan_blocks(), fold_block, table, limit),
                    self.group_index,
                    targets,
                )
            )
            output.extend(finish(table))
            # Pushed last to first, so partition 0 is visited next.
            for index in reversed(range(self.SPILL_PARTITIONS)):
                partition = targets[index].collection
                if partition is None:
                    continue
                # A degenerate split (e.g. one giant group) is finished in
                # memory rather than split forever.
                degenerate = depth >= 8 or len(partition) >= spilled_records
                pending.append(
                    (
                        partition,
                        f"{label}.{index}",
                        depth + 1,
                        math.inf if degenerate else max_groups,
                    )
                )
        output.seal()
        return AggregationResult(
            output=output,
            io=None,
            groups=len(output),
            spills=spills,
            details={"max_groups_in_memory": max_groups},
        )


def _fold_blocks(
    blocks: Iterable[list[tuple]], fold_block: Callable, table: dict, limit
) -> Iterator[list[tuple]]:
    """Fold each block into ``table``; yield, per block, the records spilled."""
    for block in blocks:
        spilled: list[tuple] = []
        fold_block(block, table, limit, spilled)
        yield spilled


class _Spill:
    """A hash-aggregation spill partition, created by ``create()`` on its
    first flush."""

    def __init__(self, create: Callable[[], PersistentCollection]) -> None:
        self.create = create
        self.collection: PersistentCollection | None = None

    def extend(self, records: list[tuple]) -> None:
        if self.collection is None:
            self.collection = self.create()
        self.collection.extend(records)
