"""The operator context: recording, assessing and producing collections.

The operator context is the paper's ``OpCtx`` (Listing 1 and 2).  It owns
the control-flow graph for one operator, exposes the four API primitives,
and makes the materialization decisions when collections are opened:

* :meth:`OperatorContext.assess` runs the rule engine over a deferred
  collection and, when the verdict is to materialize, promotes it (and its
  partition siblings, per the eager-partition rule).
* :meth:`OperatorContext.produce` fills a promoted collection by replaying
  the derivation chain from its nearest available ancestors, charging the
  corresponding reads and writes.
* :meth:`OperatorContext.reconstruct` streams a deferred collection's
  records without writing them anywhere, which is how laziness actually
  saves writes.

Both replay a chain of filters, partitions and splits a root charge batch
at a time from the nearest *available* ancestor, the root (a MEMORY or a
produced MATERIALIZED collection).  The charge contract: a replay that
pulls ``k`` root records pays ``k // per_block`` whole-block reads, plus the
partial tail block only if it ran past the root's last record.  A bounded
replay -- a sliced ``reconstruct`` or a split's low side -- stops at the
root record completing its bound, so a slice whose last output is the
root's last record does not pay the tail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq
from typing import Callable, Iterator, Optional

from repro.exceptions import ConfigurationError, GraphConsistencyError
from repro.pmem.backends.base import PersistenceBackend
from repro.runtime.api import CallKind, FilterCall, MergeCall, PartitionCall, SplitCall
from repro.runtime.graph import ControlFlowGraph
from repro.runtime.rules import MaterializationDecision, RuleEngine
from repro.storage.collection import (
    DEFAULT_CHARGE_BATCH_BLOCKS,
    CollectionStatus,
    PersistentCollection,
    StoreOwner,
)
from repro.storage.schema import Schema, WISCONSIN_SCHEMA

#: A replay step: ``(keep, start, stop)``.  A filter or partition keeps the
#: records its ``keep`` predicate accepts; a split (``keep`` is None) keeps
#: ``[start, stop)`` of its input and stops pulling once ``stop`` entered.
Step = tuple[Optional[Callable[[tuple], bool]], int, Optional[int]]


@dataclass
class _Tracked:
    """What a context knows of one registered collection."""

    #: Records present: a settled input, or a promoted collection filled.
    produced: bool
    expected_records: int | None = None
    process_count_hint: int = 0
    #: Read cost (ns) spent opening the collection as a replay root.
    accumulated_read_ns: float = 0.0
    reconstructions: int = 0
    last_reconstructed: int | None = None


class OperatorContext:
    """Runtime context shared by the collections of one physical operator.

    The context tracks collections by identity: a collection's name is
    only its label, so two collections under one label are tracked apart.
    """

    def __init__(
        self,
        backend: PersistenceBackend,
        schema: Schema = WISCONSIN_SCHEMA,
        rules: RuleEngine | None = None,
        owner: StoreOwner | None = None,
    ) -> None:
        self.backend = backend
        #: Adopts every collection the context declares, so the stores of
        #: those it materializes are dropped with its owner's work.
        self.owner = owner
        self.schema = schema
        self.rules = rules or RuleEngine()
        self.graph = ControlFlowGraph()
        self._names = itertools.count()
        self._tracked: dict[PersistentCollection, _Tracked] = {}
        self.decisions: list[MaterializationDecision] = []

    # ------------------------------------------------------------------ #
    # Collection management.
    # ------------------------------------------------------------------ #
    def create_name(self, prefix: str = "ctx") -> str:
        """A fresh label for a new collection (the paper's ``create_name()``)."""
        return f"{prefix}-{next(self._names)}"

    def declare(
        self,
        name: str | None = None,
        status: CollectionStatus = CollectionStatus.DEFERRED,
        schema: Schema | None = None,
        expected_records: int | None = None,
    ) -> PersistentCollection:
        """Declare a collection managed by this context."""
        collection = PersistentCollection(
            name=name or self.create_name(),
            backend=self.backend,
            schema=schema or self.schema,
            status=status,
            context=self,
        )
        if self.owner is not None:
            self.owner.adopt(collection)
        return self.register(collection, expected_records=expected_records)

    def register(
        self,
        collection: PersistentCollection,
        expected_records: int | None = None,
    ) -> PersistentCollection:
        """Adopt a collection (e.g. a primary input) into the context.

        Registering a collection again changes nothing but an estimate
        not yet recorded: ``expected_records`` never overrides one.
        """
        tracked = self._tracked.get(collection)
        if tracked is None:
            # Only a collection this context must derive points back at
            # it: a settled input is recorded as produced, so a base table
            # keeps no reference to the query that read it.
            tracked = self._tracked[collection] = _Tracked(
                produced=not collection.is_deferred
            )
            if collection.is_deferred:
                collection.context = self
        if tracked.expected_records is None:
            tracked.expected_records = expected_records
        return collection

    def collections(self) -> list[PersistentCollection]:
        return list(self._tracked)

    def set_process_count_hint(
        self, collection: PersistentCollection, count: int
    ) -> None:
        """Tell the multi-process rule how often a collection will be read."""
        if count < 0:
            raise ConfigurationError("process count must be non-negative")
        self._tracked[collection].process_count_hint = count

    # ------------------------------------------------------------------ #
    # The four API primitives.
    # ------------------------------------------------------------------ #
    def split(
        self,
        source: PersistentCollection,
        position: int,
        low: PersistentCollection | None = None,
        high: PersistentCollection | None = None,
    ) -> tuple[PersistentCollection, PersistentCollection]:
        """``split(T, n, Tl, Th)``: record a split of ``source`` at ``position``."""
        self.register(source)
        remainder = max(0, self.estimated_cardinality(source) - position)
        if low is None:
            low = self.declare()
        if high is None:
            high = self.declare()
        self.register(low, expected_records=position)
        self.register(high, expected_records=remainder)
        self.graph.add_call(SplitCall(position=position), (source,), (low, high))
        return low, high

    def partition(
        self,
        source: PersistentCollection,
        partition_fn,
        num_partitions: int,
        outputs: list[PersistentCollection] | None = None,
        expected_sizes: list[int] | None = None,
    ) -> list[PersistentCollection]:
        """``partition(T, h(), k, <Ti>, <si>)``: record a hash partitioning."""
        self.register(source)
        if outputs is None:
            outputs = [self.declare() for _ in range(num_partitions)]
        if len(outputs) != num_partitions:
            raise ConfigurationError(
                "partition needs exactly one output collection per partition"
            )
        descriptor = PartitionCall(
            partition_fn=partition_fn,
            num_partitions=num_partitions,
            expected_sizes=tuple(expected_sizes) if expected_sizes else None,
        )
        source_records = self.estimated_cardinality(source)
        for index, output in enumerate(outputs):
            self.register(
                output, expected_records=descriptor.expected_size(index, source_records)
            )
        self.graph.add_call(descriptor, (source,), tuple(outputs))
        return outputs

    def filter(
        self,
        source: PersistentCollection,
        predicate,
        selectivity: float = 1.0,
        output: PersistentCollection | None = None,
    ) -> PersistentCollection:
        """``filter(T, p(), f, Tp)``: record a filtering of ``source``."""
        self.register(source)
        descriptor = FilterCall(predicate=predicate, selectivity=selectivity)
        expected = descriptor.expected_size(self.estimated_cardinality(source))
        if output is None:
            output = self.declare()
        self.register(output, expected_records=expected)
        self.graph.add_call(descriptor, (source,), (output,))
        return output

    def merge(
        self,
        left: PersistentCollection,
        right: PersistentCollection,
        merge_fn,
        output: PersistentCollection,
    ) -> PersistentCollection:
        """``merge(Tl, Tr, m(), T)``: record and execute a merge.

        The merge function drives the computation (it is the paper's
        functor that opens its inputs, triggering assessment and
        production), so unlike the other primitives it runs eagerly.
        """
        for collection in (left, right, output):
            self.register(collection)
        self.graph.add_call(MergeCall(merge_fn=merge_fn), (left, right), ())
        merge_fn(left, right, output)
        return output

    # ------------------------------------------------------------------ #
    # Assess / produce / reconstruct (the Collection.open protocol).
    # ------------------------------------------------------------------ #
    def assess(self, collection: PersistentCollection) -> MaterializationDecision:
        """Run the rule engine on a deferred collection."""
        decision = self.rules.assess(collection, self)
        self.decisions.append(decision)
        if decision.materialize:
            collection.mark_materialized()
            producer = self.graph.producer_of(collection)
            if producer is not None and producer.kind is CallKind.PARTITION:
                producer.group_decision = "materialize"
        return decision

    def is_pending(self, collection: PersistentCollection) -> bool:
        """Materialized (or promoted) but records not yet produced."""
        return not self._tracked[collection].produced

    def is_available(self, collection: PersistentCollection) -> bool:
        """Records are present and can be scanned without re-derivation.

        Only settled collections are ever recorded as produced: a settled
        input when it is registered, a promoted one once it is filled.
        """
        return self._tracked[collection].produced

    def produce(self, collection: PersistentCollection) -> None:
        """Fill a promoted collection by replaying its derivation chain.

        All or nothing: if the replay raises, every collection being
        produced is cleared (its store truncated) before the exception
        propagates, so the next ``open()`` produces it again from scratch.
        """
        if self.is_available(collection):
            return
        if collection.is_deferred:
            raise GraphConsistencyError(
                f"collection {collection.name!r} is still deferred; assess it first"
            )
        producer = self.graph.producer_of(collection)
        if producer is None:
            raise GraphConsistencyError(
                f"collection {collection.name!r} has no producer call and no records"
            )
        if (
            producer.kind is CallKind.PARTITION
            and producer.group_decision == "materialize"
        ):
            # The runtime never scans an input twice to materialize the
            # outputs of one call: all promoted siblings are produced in the
            # same pass over the source.
            self._produce_partition_group(producer)
            return
        batches = self._replay(*self._chain(collection))
        self._fill([collection], ([batch] for batch in batches))

    def reconstruct(
        self, collection: PersistentCollection, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple]:
        """Stream a deferred collection's records without materializing them.

        ``start``/``stop`` slice the derived stream the way
        ``itertools.islice`` would, and the replay derives no further than
        the slice needs.  Fully consumed reconstructions are tallied (count
        of derivations, and the collection's true cardinality whenever a
        derivation runs to exhaustion -- including sliced scans that reach
        past the end), so callers -- the query executor's deferred
        boundaries in particular -- can report how much re-derivation a
        deferral actually cost.
        """
        return itertools.chain.from_iterable(
            self._reconstruct(collection, start, stop)
        )

    def _reconstruct(
        self, collection: PersistentCollection, start: int, stop: int | None
    ) -> Iterator[list[tuple]]:
        if start < 0 or (stop is not None and stop < 0):
            raise ValueError("reconstruct bounds must be non-negative")
        # The slice is one more split step; like islice, it pulls
        # max(start, stop) records even when stop < start.
        bound = None if stop is None else max(start, stop)
        root, steps = self._chain(collection)
        taken = yield from self._replay(root, [*steps, (None, start, bound)])
        produced = taken[-1]
        tracked = self._tracked[collection]
        tracked.reconstructions += 1
        if stop is None or produced < stop:
            # The derivation ran dry before (or exactly at) the slice
            # bound, so ``produced`` is the collection's full cardinality.
            tracked.last_reconstructed = produced

    def reconstruction_count(self, collection: PersistentCollection) -> int:
        """How many times ``collection`` has been fully re-derived."""
        return self._tracked[collection].reconstructions

    def last_reconstructed_records(
        self, collection: PersistentCollection
    ) -> int | None:
        """Records yielded by the last full reconstruction, if any."""
        return self._tracked[collection].last_reconstructed

    # ------------------------------------------------------------------ #
    # Cost bookkeeping used by the rules.
    # ------------------------------------------------------------------ #
    @property
    def write_read_ratio(self) -> float:
        return self.backend.device.write_read_ratio

    def expected_process_count(self, collection: PersistentCollection) -> int:
        return self._tracked[collection].process_count_hint

    def estimated_cardinality(self, collection: PersistentCollection) -> int:
        tracked = self._tracked[collection]
        if collection.records or tracked.produced:
            return len(collection.records)
        return tracked.expected_records or 0

    def estimated_write_cost(self, collection: PersistentCollection) -> float:
        """Cost (ns) of materializing the collection once."""
        nbytes = self.estimated_cardinality(collection) * collection.schema.record_bytes
        cachelines = self.backend.device.geometry.bytes_to_cachelines(nbytes)
        return self.backend.device.latency.write_cost_ns(cachelines)

    def estimated_construction_read_cost(
        self, collection: PersistentCollection
    ) -> float:
        """Cost (ns) of reading the inputs needed to build the collection once."""
        producer = self.graph.producer_of(collection)
        if producer is None:
            return 0.0
        total = 0.0
        for parent in producer.inputs:
            nbytes = self.estimated_cardinality(parent) * parent.schema.record_bytes
            cachelines = self.backend.device.geometry.bytes_to_cachelines(nbytes)
            total += self.backend.device.latency.read_cost_ns(cachelines)
        return total

    def accumulated_read_cost(self, collections) -> float:
        """Read cost already spent scanning the given collections (ns)."""
        return sum(self._tracked[c].accumulated_read_ns for c in collections)

    # ------------------------------------------------------------------ #
    # Internal helpers.
    # ------------------------------------------------------------------ #
    def _chain(
        self, collection: PersistentCollection
    ) -> tuple[PersistentCollection, list[Step]]:
        """The root of ``collection``'s replay and the steps from it down.

        ``collection`` itself is always re-derived from its producer; the
        chain then walks up while the source is unavailable.
        """
        steps: list[Step] = []
        while not steps or not self.is_available(collection):
            producer = self.graph.producer_of(collection)
            if producer is None:
                raise GraphConsistencyError(
                    f"collection {collection.name!r} has no producer and no "
                    "records; cannot derive it"
                )
            if producer.kind is CallKind.MERGE:
                raise GraphConsistencyError(
                    "merge outputs are append targets and cannot be re-derived "
                    f"lazily (collection {collection.name!r})"
                )
            descriptor, index = producer.descriptor, producer.output_index(collection)
            if producer.kind is CallKind.SPLIT:
                steps.append((None, *descriptor.output_slice(index)))
            elif producer.kind is CallKind.PARTITION:
                fn = descriptor.partition_fn
                steps.append((lambda record, fn=fn, i=index: fn(record) == i, 0, None))
            else:
                steps.append((descriptor.predicate, 0, None))
            collection = producer.inputs[0]
        steps.reverse()
        return collection, steps

    def _replay(
        self, root: PersistentCollection, steps: list[Step]
    ) -> Iterator[list[tuple]]:
        """Yield the records ``steps`` derive from ``root``, a batch at a time.

        A pull takes at most one root charge batch and no more root records
        than the fullest bounded step still accepts (steps never pass on
        more than they take), so a bound is reached exactly at the end of a
        pull.  Root reads follow the module's charge contract.  Returns how
        many records entered each step.
        """
        if all(stop != 0 for _, _, stop in steps[1:]):
            # Opening the root accrues its read cost to the read-over-write
            # rule; a zero bound above the first step never opens it.
            device = self.backend.device
            cachelines = device.geometry.bytes_to_cachelines(root.nbytes)
            self._tracked[root].accumulated_read_ns += device.latency.read_cost_ns(
                cachelines
            )
        records = root.records
        per_block = root.records_per_block
        batch_records = per_block * DEFAULT_CHARGE_BATCH_BLOCKS
        bounded = [(i, stop) for i, (*_, stop) in enumerate(steps) if stop is not None]
        taken = [0] * len(steps)
        position = charged = 0
        while pull := min([batch_records, *(stop - taken[i] for i, stop in bounded)]):
            if position == len(records):
                root.charge_scan(charged, position)  # ran past the last record
                break
            batch = records[position:position + pull]
            position += len(batch)
            whole = position - (position - charged) % per_block
            root.charge_scan(charged, whole)
            charged = whole
            for index, (keep, start, stop) in enumerate(steps):
                seen = taken[index]
                taken[index] = seen + len(batch)
                if keep is not None:
                    batch = list(filter(keep, batch))
                else:
                    end = None if stop is None else stop - seen
                    batch = batch[max(0, start - seen):end]
            if batch:
                yield batch
        return taken

    def _produce_partition_group(self, call) -> None:
        """Materialize every promoted output of one partition call in one scan."""
        descriptor = call.descriptor
        targets: dict[int, PersistentCollection] = {}
        for index, output in enumerate(call.outputs):
            if output.is_deferred:
                # Promote the remaining siblings: the eager-partition rule.
                output.mark_materialized()
            if not self.is_available(output):
                targets[index] = output
        if not targets:
            return
        # Any output's chain, less its own partition step, derives the source.
        root, steps = self._chain(call.outputs[0])
        source = self._replay(root, steps[:-1])

        def shares(batch: list[tuple]) -> list[list[tuple]]:
            indices = list(map(descriptor.partition_fn, batch))
            return [
                list(compress(batch, map(eq, indices, repeat(index))))
                for index in targets
            ]

        self._fill(list(targets.values()), map(shares, source))

    def _fill(self, targets: list[PersistentCollection], shares) -> None:
        """Extend each target with its list of every ``shares`` item, all or
        nothing: an exception clears every target before it propagates."""
        try:
            for batch_shares in shares:
                for target, share in zip(targets, batch_shares):
                    target.extend(share)
            for target in targets:
                target.flush()
        except BaseException:
            for target in targets:
                target.clear()
            raise
        for target in targets:
            self._tracked[target].produced = True
