"""Physical operators built on the runtime API.

These mirror the paper's Listing 2: an operator receives an operator
context, records its workflow as API calls in ``evaluate()``, and the
actual work happens inside merge functors that open (assess/produce) the
collections they touch.  The segmented Grace join operator reproduces the
control-flow graph of Figure 4.
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.joins.common import (
    build_hash_table,
    joined_schema,
    partition_of,
    probe_into,
)
from repro.runtime.context import OperatorContext
from repro.storage.collection import CollectionStatus, PersistentCollection


class Operator(abc.ABC):
    """Base physical operator; records its workflow at construction time."""

    def __init__(self, context: OperatorContext) -> None:
        self.context = context

    @abc.abstractmethod
    def evaluate(self) -> PersistentCollection:
        """Record (and drive) the operator's workflow; returns its output."""


class PartitionJoinFunctor:
    """The ``partition_join`` functor of Listing 2.

    Opens its three collections (letting the context assess and produce
    them), builds a hash table over the left one and probes it with the
    right one, appending matches to the output.
    """

    def __init__(self, left_key: Callable, right_key: Callable) -> None:
        self.left_key = left_key
        self.right_key = right_key

    def __call__(
        self,
        left: PersistentCollection,
        right: PersistentCollection,
        output: PersistentCollection,
    ) -> None:
        left.open()
        right.open()
        output.open()
        table = build_hash_table(left.scan(), self.left_key)
        probe_into(output, table, right.scan_blocks(), self.right_key)


class SegmentedGraceJoinOperator(Operator):
    """Segmented Grace join expressed through the runtime API (Figure 4).

    Both inputs are declared, partitioned into ``num_partitions`` deferred
    partitions, and each partition pair is merged (joined) into the output.
    Which partitions actually get materialized is entirely up to the rule
    engine -- this operator carries no explicit write-intensity knob, which
    is precisely the point of the runtime API.
    """

    def __init__(
        self,
        context: OperatorContext,
        left: PersistentCollection,
        right: PersistentCollection,
        num_partitions: int,
        materialize_output: bool = True,
    ) -> None:
        super().__init__(context)
        self.left = left
        self.right = right
        self.num_partitions = num_partitions
        self.materialize_output = materialize_output
        self.output_schema = joined_schema(left.schema, right.schema)

    def evaluate(self) -> PersistentCollection:
        context = self.context
        output = PersistentCollection(
            name=context.create_name("sgj-output"),
            backend=context.backend if self.materialize_output else None,
            schema=self.output_schema,
            status=(
                CollectionStatus.MATERIALIZED
                if self.materialize_output
                else CollectionStatus.MEMORY
            ),
        )
        context.register(output)

        def hash_of(record: tuple) -> int:
            return partition_of(record[self.left.schema.key_index], self.num_partitions)

        left_parts = [
            context.declare(context.create_name("sgj-L"))
            for _ in range(self.num_partitions)
        ]
        right_parts = [
            context.declare(context.create_name("sgj-R"))
            for _ in range(self.num_partitions)
        ]
        context.partition(self.left, hash_of, self.num_partitions, left_parts)
        context.partition(self.right, hash_of, self.num_partitions, right_parts)

        functor = PartitionJoinFunctor(
            self.left.schema.key, self.right.schema.key
        )
        for left_part, right_part in zip(left_parts, right_parts):
            context.merge(left_part, right_part, functor, output)
        output.seal()
        return output
