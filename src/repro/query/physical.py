"""The uniform physical-operator streaming API.

Every physical plan node -- scan, filter, project, sort, join, grouped
aggregation, and the deferred-filter integration with the Section 3.1
runtime -- executes behind one pull interface:

* :meth:`PhysicalOperator.open` acquires inputs and runs any blocking
  work (a sort's run generation and merge, a join's build, an
  aggregation's group table);
* :meth:`PhysicalOperator.blocks` streams the operator's output as
  insertion-order record blocks, so a consumer (or the executor's
  boundary settlement) pulls block by block instead of waiting for a
  monolithic list;
* :meth:`PhysicalOperator.close` releases the operator.

The executor measures each node's device I/O around these calls, and
``explain()`` reports it next to the planner's estimate.

What happens to the stream at the operator's *output edge* is the plan's
per-edge :class:`Boundary` decision:

``MATERIALIZE``
    the executor drains ``blocks()`` into a collection on the persistent
    device (the classical operator boundary, paying the lambda-weighted
    settlement write);

``PIPELINE``
    the output stays in DRAM -- either the operator's own in-memory
    result collection (:attr:`PhysicalOperator.output`) or a drained
    in-memory sink -- and the consumer reads it for free;

``DEFER``
    nothing is produced at all: the operator registers its derivation
    with a :class:`~repro.runtime.context.OperatorContext` and hands the
    consumer a ``DEFERRED`` collection whose records are re-derived
    through the runtime's control-flow graph on every scan, after the
    graph's materialization rules have had their say.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional

from repro.exceptions import ConfigurationError
from repro.query.logical import Filter, GroupBy, Join, OrderBy, Project, Scan
from repro.storage.collection import PersistentCollection


class BoundaryKind(enum.Enum):
    """How one plan edge moves its intermediate to the consumer."""

    MATERIALIZE = "materialize"
    PIPELINE = "pipeline"
    DEFER = "defer"


#: Planner policies for choosing boundaries (``CostBasedPlanner``).
BOUNDARY_POLICIES = ("cost", "materialize", "pipeline", "defer")


@dataclass
class Boundary:
    """The planner's decision for one producer->consumer edge.

    ``priced`` maps every candidate the planner considered to its
    estimated cost *delta* against materializing the edge (negative means
    cheaper than materializing); ``est_saved_write_ns`` is the estimated
    lambda-weighted settlement write the chosen boundary avoids.
    """

    kind: BoundaryKind = BoundaryKind.MATERIALIZE
    priced: dict = field(default_factory=dict)
    est_saved_write_ns: float = 0.0
    reason: str = ""

    @property
    def is_materialize(self) -> bool:
        return self.kind is BoundaryKind.MATERIALIZE

    def describe(self) -> str:
        if self.kind is BoundaryKind.MATERIALIZE:
            return "materialize"
        return self.kind.value


class PhysicalOperator(abc.ABC):
    """One plan node behind the uniform open()/blocks()/close() protocol.

    Subclasses implement :meth:`_open` and :meth:`_blocks`.
    """

    def __init__(self, node) -> None:
        self.node = node
        self.details: dict = {}
        #: In-memory (or deferred) result collection, when the operator
        #: naturally settles into one; ``None`` for pure streamers.
        self.output: Optional[PersistentCollection] = None
        self._opened = False

    # ------------------------------------------------------------------ #
    # The protocol.
    # ------------------------------------------------------------------ #
    def open(self) -> None:
        """Acquire inputs and run the operator's blocking work."""
        if self._opened:
            return
        self._opened = True
        self._open()

    def blocks(self) -> Iterator[list[tuple]]:
        """Pull the output as record blocks (insertion order)."""
        if not self._opened:
            self.open()
        return self._blocks()

    def close(self) -> None:
        """Release the operator; no operator holds anything past its run."""

    # ------------------------------------------------------------------ #
    # Subclass hooks.
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        """Blocking work; default is none (pure streamers)."""

    @abc.abstractmethod
    def _blocks(self) -> Iterator[list[tuple]]:
        """Yield the operator's output blocks."""


class ScanOperator(PhysicalOperator):
    """Leaf: hand an already-settled collection to the consumer."""

    def __init__(self, node, collection: PersistentCollection) -> None:
        super().__init__(node)
        self.collection = collection

    def _open(self) -> None:
        self.collection.open()
        self.output = self.collection

    def _blocks(self) -> Iterator[list[tuple]]:
        yield from self.collection.scan_blocks()


class FilterOperator(PhysicalOperator):
    """Stream the source blocks through the predicate."""

    def __init__(self, node, source: PersistentCollection) -> None:
        super().__init__(node)
        self.source = source

    def _blocks(self) -> Iterator[list[tuple]]:
        predicate = self.node.logical.predicate
        for block in self.source.scan_blocks():
            survivors = list(filter(predicate, block))
            if survivors:
                yield survivors


class ProjectOperator(PhysicalOperator):
    """Stream the source blocks through the attribute projection."""

    def __init__(self, node, source: PersistentCollection) -> None:
        super().__init__(node)
        self.source = source
        self._getter = itemgetter(*node.logical.indices)

    def _blocks(self) -> Iterator[list[tuple]]:
        getter = self._getter
        single = len(self.node.logical.indices) == 1
        for block in self.source.scan_blocks():
            values = map(getter, block)
            # A one-index itemgetter returns the bare value; zip re-wraps
            # each one as the 1-tuple record the schema promises.
            yield list(zip(values) if single else values)


class SortOperator(PhysicalOperator):
    """Blocking: run the planned sort algorithm, then stream its output."""

    def __init__(self, node, source, bufferpool) -> None:
        super().__init__(node)
        self.source = source
        self.bufferpool = bufferpool

    def _open(self) -> None:
        sorter = self.node.factory(bufferpool=self.bufferpool)
        result = sorter.sort(self.source)
        self.details = {
            "runs_generated": result.runs_generated,
            "merge_passes": result.merge_passes,
            "input_scans": result.input_scans,
        }
        self.output = result.output

    def _blocks(self) -> Iterator[list[tuple]]:
        yield from self.output.scan_blocks()


class JoinOperator(PhysicalOperator):
    """Blocking: run the planned join; streams logical left+right records.

    The planner may have swapped the build side; the stream restores the
    logical attribute order, so consumers never see the swap.
    """

    def __init__(self, node, left, right, bufferpool) -> None:
        super().__init__(node)
        self.left = left
        self.right = right
        self.bufferpool = bufferpool
        self._swap_fields = 0

    def _open(self) -> None:
        algorithm = self.node.factory(bufferpool=self.bufferpool)
        swapped = self.node.extra.get("swapped", False)
        build, probe = (self.right, self.left) if swapped else (self.left, self.right)
        result = algorithm.join(build, probe)
        self.details = {
            "partitions": result.partitions,
            "iterations": result.iterations,
            "swapped": swapped,
        }
        if swapped:
            # The algorithm emitted build+probe = right+left records; the
            # stream must restore left+right, so the raw output collection
            # cannot be reused as-is.
            self._swap_fields = build.schema.num_fields
            self._raw = result.output
        else:
            self.output = result.output
            self._raw = result.output

    def _blocks(self) -> Iterator[list[tuple]]:
        if not self._swap_fields:
            yield from self._raw.scan_blocks()
            return
        n = self._swap_fields
        for block in self._raw.scan_blocks():
            yield [record[n:] + record[:n] for record in block]


class GroupByOperator(PhysicalOperator):
    """Blocking: run the planned aggregation, then stream the groups."""

    def __init__(self, node, source, bufferpool) -> None:
        super().__init__(node)
        self.source = source
        self.bufferpool = bufferpool

    def _open(self) -> None:
        aggregation = self.node.factory(bufferpool=self.bufferpool)
        result = aggregation.aggregate(self.source)
        self.details = {"groups": result.groups, "spills": result.spills}
        self.details.update(result.details)
        self.output = result.output

    def _blocks(self) -> Iterator[list[tuple]]:
        yield from self.output.scan_blocks()


class DeferredFilterOperator(PhysicalOperator):
    """A DEFER boundary on a filter edge: produce nothing, record a graph.

    ``open()`` registers the filter call with the runtime's
    :class:`~repro.runtime.context.OperatorContext` and asks the rule
    engine to assess the declared output (the paper's ``Collection::open``
    protocol).  If the rules keep it deferred, the consumer re-derives the
    records straight from the source on every scan -- the write (and the
    DRAM copy) never happen.  If a rule votes to materialize (e.g.
    read-over-write at low lambda), the runtime produces the collection
    and the boundary degrades gracefully to a materialized one, with the
    decision recorded in :attr:`PhysicalOperator.details`.
    """

    def __init__(self, node, source, context) -> None:
        super().__init__(node)
        self.source = source
        self.context = context

    def _open(self) -> None:
        logical = self.node.logical
        if not isinstance(logical, Filter):
            raise ConfigurationError(
                "DEFER boundaries are only supported on Filter edges; "
                f"got {type(logical).__name__}"
            )
        name = self.context.create_name("deferred-filter")
        output = self.context.declare(
            name=name,
            schema=self.node.schema,
            expected_records=int(round(self.node.est_records)),
        )
        self.context.filter(
            self.source, logical.predicate, logical.selectivity, output=output
        )
        passes = int(self.node.extra.get("consumer_passes", 1))
        self.context.set_process_count_hint(output, passes)
        # Run the assess/produce protocol: the rule engine may veto the
        # planner's deferral (and then the records are produced here,
        # charging this node the writes the plan hoped to avoid).
        output.open()
        decision = self.context.decisions[-1] if self.context.decisions else None
        self.details = {
            "deferred": output.is_deferred,
            "collection": name,
        }
        if decision is not None and decision.collection is output:
            self.details["rule"] = decision.rule
            self.details["rule_reason"] = decision.reason
        self.output = output

    def _blocks(self) -> Iterator[list[tuple]]:
        yield from self.output.scan_blocks()


def build_operator(
    node,
    inputs: list[PersistentCollection],
    *,
    bufferpool,
    context_factory,
) -> PhysicalOperator:
    """Construct the :class:`PhysicalOperator` for one planned node.

    ``inputs`` are the settled output collections of the node's children
    (in child order); ``context_factory`` lazily provides the execution's
    shared :class:`~repro.runtime.context.OperatorContext` for DEFER
    boundaries.
    """
    logical = node.logical
    if isinstance(logical, Scan):
        return ScanOperator(node, logical.collection)
    if isinstance(logical, Filter):
        if node.boundary.kind is BoundaryKind.DEFER:
            return DeferredFilterOperator(node, inputs[0], context_factory())
        return FilterOperator(node, inputs[0])
    if isinstance(logical, Project):
        return ProjectOperator(node, inputs[0])
    if isinstance(logical, OrderBy):
        return SortOperator(node, inputs[0], bufferpool)
    if isinstance(logical, Join):
        return JoinOperator(node, inputs[0], inputs[1], bufferpool)
    if isinstance(logical, GroupBy):
        return GroupByOperator(node, inputs[0], bufferpool)
    raise ConfigurationError(f"unknown plan node {type(logical).__name__}")
