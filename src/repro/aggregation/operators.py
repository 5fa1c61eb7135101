"""Grouped-aggregation operators over persistent collections.

Two strategies, mirroring the sort/join duality of the paper:

* :class:`SortedAggregation` is the *write-limited* strategy: it sorts the
  input on the grouping attribute with one of the Section 2.1 sorts
  (segment sort by default, output pipelined) and folds the sorted stream
  into per-group accumulators.  Its persistent-memory writes are the
  aggregate output plus whatever the chosen sort spills.
* :class:`HashAggregation` is the *write-incurring* baseline: groups are
  accumulated in a DRAM hash table and, when the table exceeds the memory
  budget, whole partitions of accumulated state are spilled to persistent
  memory and re-read at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from repro.exceptions import ConfigurationError, InsufficientMemoryError
from repro.aggregation.functions import (
    AggregateFunction,
    compile_fold,
    make_aggregate,
)
from repro.joins.common import partition_into
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.metrics import IOResult, IOSnapshot
from repro.sorts.segment_sort import SegmentSort
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import (
    AppendBuffer,
    CollectionStatus,
    PersistentCollection,
)
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


class _AggregationBase:
    """Shared construction and output handling for the two strategies."""

    short_name = "aggregation"
    write_limited = False

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
        self.backend = backend
        self.budget = budget
        self.schema = schema
        self.group_index = group_index
        self.materialize_output = materialize_output
        self.bufferpool = bufferpool if bufferpool is not None else Bufferpool(budget)
        spec = aggregates or {"count": group_index}
        self.aggregates: list[tuple[AggregateFunction, int]] = []
        for name, attribute in spec.items():
            if not 0 <= attribute < schema.num_fields:
                raise ConfigurationError(
                    f"aggregate {name!r} over attribute {attribute} outside schema"
                )
            self.aggregates.append((make_aggregate(name), attribute))
        #: ``fold(states, record)``: folds a record into a group's states.
        self._fold = compile_fold(self.aggregates)
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
        device = self.backend.device
        before = device.snapshot()
        with self.bufferpool.workspace(self.budget.nbytes, owner=self.short_name):
            result = self._execute(collection)
        result.io = device.snapshot() - before
        return result

    def _execute(self, collection: PersistentCollection) -> AggregationResult:
        raise NotImplementedError

    def _make_output(self, input_name: str) -> PersistentCollection:
        name = f"{input_name}-groupby-{self.short_name.lower()}"
        if self.materialize_output:
            return PersistentCollection(
                name=name,
                backend=self.backend,
                schema=self.output_schema,
                status=CollectionStatus.MATERIALIZED,
            )
        return PersistentCollection(
            name=name, schema=self.output_schema, status=CollectionStatus.MEMORY
        )

    def _fresh_states(self) -> list:
        return [aggregate.initial() for aggregate, _ in self.aggregates]

    def _finalize(self, group_key: int, states: list) -> tuple:
        return tuple(
            [group_key]
            + [aggregate.final(state) for state, (aggregate, _) in zip(states, self.aggregates)]
        )


class SortedAggregation(_AggregationBase):
    """Write-limited aggregation: sort (pipelined) then stream group-by."""

    short_name = "SortAgg"
    write_limited = True

    def __init__(self, *args, sort_class=SegmentSort, sort_kwargs=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.sort_class = sort_class
        self.sort_kwargs = dict(sort_kwargs or {})

    def _execute(self, collection: PersistentCollection) -> AggregationResult:
        output = self._make_output(collection.name)
        if len(collection) == 0:
            output.seal()
            return AggregationResult(output=output, io=None)

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
            **self.sort_kwargs,
        )
        sort_result = sorter.sort(collection)

        group_index = self.group_index
        fold = self._fold
        current_key = states = None
        emitted = AppendBuffer(output)
        groups = 0
        for block in sort_result.output.scan_blocks():
            for record in block:
                key = record[group_index]
                if key != current_key:
                    if states is not None:
                        emitted.append(self._finalize(current_key, states))
                        groups += 1
                    current_key = key
                    states = self._fresh_states()
                fold(states, record)
        # An input that turns out empty (a deferred one is only estimated
        # non-empty) has no group to emit.
        if states is not None:
            emitted.append(self._finalize(current_key, states))
            groups += 1
        emitted.seal()
        return AggregationResult(
            output=output,
            io=None,
            groups=groups,
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

    def _execute(self, collection: PersistentCollection) -> AggregationResult:
        output = self._make_output(collection.name)
        if len(collection) == 0:
            output.seal()
            return AggregationResult(output=output, io=None)

        max_groups = max(1, self.budget.nbytes // self.GROUP_STATE_BYTES)
        spills = 0
        emitted_groups = AppendBuffer(output)

        group_index = self.group_index
        fold = self._fold

        def aggregate_stream(source, label: str, depth: int, limit) -> int:
            """Aggregate a collection's records, spilling overflow groups.

            A group's records are never split between the in-memory table
            and the spills: once a key owns a table entry every later record
            with that key folds into it, and keys first seen after the table
            holds ``limit`` groups are spilled wholesale and re-aggregated
            in a later pass.  Returns the number of groups emitted.
            """
            nonlocal spills
            table: dict[int, list] = {}
            get = table.get

            def overflow():
                for block in source.scan_blocks():
                    spilled = []
                    for record in block:
                        key = record[group_index]
                        states = get(key)
                        if states is None:
                            if len(table) >= limit:
                                spilled.append(record)
                                continue
                            states = table[key] = self._fresh_states()
                        fold(states, record)
                    yield spilled

            targets = [
                _Spill(
                    name=f"{collection.name}-hashagg-spill-{depth}-{label}-{index}",
                    backend=self.backend,
                    schema=self.schema,
                    status=CollectionStatus.MATERIALIZED,
                )
                for index in range(self.SPILL_PARTITIONS)
            ]
            spilled_records = partition_into(
                overflow(), itemgetter(group_index), targets
            )
            emitted_groups.extend(
                [self._finalize(key, table[key]) for key in sorted(table)]
            )
            emitted = len(table)
            for index, target in enumerate(targets):
                partition = target.collection
                if partition is None:
                    continue
                spills += 1
                partition.seal()
                # A degenerate split (e.g. one giant group) is finished in
                # memory rather than recursing forever.
                degenerate = depth >= 8 or len(partition) >= spilled_records
                emitted += aggregate_stream(
                    partition,
                    f"{label}.{index}",
                    depth + 1,
                    math.inf if degenerate else max_groups,
                )
            return emitted

        groups = aggregate_stream(collection, "root", 0, max_groups)
        emitted_groups.seal()
        return AggregationResult(
            output=output,
            io=None,
            groups=groups,
            spills=spills,
            details={"max_groups_in_memory": max_groups},
        )


class _Spill:
    """A hash-aggregation spill partition, created on its first flush."""

    def __init__(self, **collection_args) -> None:
        self.collection_args = collection_args
        self.collection: PersistentCollection | None = None

    def extend(self, records: list[tuple]) -> None:
        if self.collection is None:
            self.collection = PersistentCollection(**self.collection_args)
        self.collection.extend(records)
