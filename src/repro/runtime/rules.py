"""Materialization rules (Section 3.1, "Optimization").

When a deferred collection is accessed the runtime must decide whether to
materialize it or keep re-deriving it from its ancestors.  The paper uses
four symbolically named rules; each is implemented here as a function
returning a :class:`MaterializationDecision` (or ``None`` when the rule
does not apply), evaluated in the paper's order by :class:`RuleEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.api import CallKind
from repro.storage.collection import PersistentCollection


@dataclass(frozen=True)
class MaterializationDecision:
    """Outcome of assessing one collection."""

    collection: PersistentCollection
    materialize: bool
    rule: str
    reason: str


class RuleEngine:
    """Applies the paper's four materialization rules in order.

    The engine is stateless; all facts come from the
    :class:`~repro.runtime.context.OperatorContext` passed to
    :meth:`assess`, which keeps the rules testable in isolation.
    """

    RULE_ORDER = (
        "process_to_append",
        "eager_partition",
        "multi_process",
        "read_over_write",
    )

    def assess(
        self, collection: PersistentCollection, context
    ) -> MaterializationDecision:
        """Decide whether ``collection`` should be materialized."""
        for rule_name in self.RULE_ORDER:
            rule = getattr(self, f"rule_{rule_name}")
            decision = rule(collection, context)
            if decision is not None:
                return decision
        # Default: stay deferred; the read-over-write rule will reconsider
        # on later accesses as read costs accumulate.
        return MaterializationDecision(
            collection=collection,
            materialize=False,
            rule="default",
            reason="no rule fired; deferring by default",
        )

    # ------------------------------------------------------------------ #
    # Rule (c): process-to-append.
    # ------------------------------------------------------------------ #
    def rule_process_to_append(self, collection: PersistentCollection, context):
        """Intermediates immediately appended to another collection stay deferred."""
        producer = context.graph.producer_of(collection)
        if producer is not None and producer.kind is CallKind.MERGE:
            return MaterializationDecision(
                collection=collection,
                materialize=False,
                rule="process-to-append",
                reason="merge results are appended to their target and never re-read",
            )
        consumers = context.graph.consumers_of(collection)
        if consumers and all(c.kind is CallKind.MERGE for c in consumers):
            # The collection only feeds merges that append straight to an
            # output; if it is processed exactly once there is no reason to
            # persist it.
            if context.graph.consumer_count(collection) == 1:
                return MaterializationDecision(
                    collection=collection,
                    materialize=False,
                    rule="process-to-append",
                    reason="consumed once, straight into an appended result",
                )
        return None

    # ------------------------------------------------------------------ #
    # Rule (b): eager-partition.
    # ------------------------------------------------------------------ #
    def rule_eager_partition(self, collection: PersistentCollection, context):
        """Once one partition output is materialized, materialize them all."""
        producer = context.graph.producer_of(collection)
        if producer is None or producer.kind is not CallKind.PARTITION:
            return None
        if producer.group_decision == "materialize":
            return MaterializationDecision(
                collection=collection,
                materialize=True,
                rule="eager-partition",
                reason="a sibling partition was materialized; amortizing the "
                "partitioning scan over all outputs",
            )
        return None

    # ------------------------------------------------------------------ #
    # Rule (a): multi-process.
    # ------------------------------------------------------------------ #
    def rule_multi_process(self, collection: PersistentCollection, context):
        """Materialize collections processed more times than the write/read ratio."""
        times_processed = max(
            context.graph.consumer_count(collection),
            context.expected_process_count(collection),
        )
        lam = context.write_read_ratio
        if times_processed > lam:
            return MaterializationDecision(
                collection=collection,
                materialize=True,
                rule="multi-process",
                reason=(
                    f"processed {times_processed} times, more than the "
                    f"write/read ratio {lam:.1f}"
                ),
            )
        return None

    # ------------------------------------------------------------------ #
    # Rule (d): read-over-write.
    # ------------------------------------------------------------------ #
    def rule_read_over_write(self, collection: PersistentCollection, context):
        """Materialize once re-deriving costs more than writing once.

        Compares the materialization cost Cm (writing the collection) to
        the accumulated read cost Cr already spent on its input plus the
        read cost Cc of constructing it one more time.
        """
        producer = context.graph.producer_of(collection)
        if producer is None:
            return None
        write_cost = context.estimated_write_cost(collection)
        accumulated = context.accumulated_read_cost(producer.inputs)
        construction = context.estimated_construction_read_cost(collection)
        if write_cost <= accumulated + construction:
            return MaterializationDecision(
                collection=collection,
                materialize=True,
                rule="read-over-write",
                reason=(
                    f"writing once ({write_cost:.0f} ns) is cheaper than the "
                    f"accumulated reads ({accumulated:.0f} ns) plus another "
                    f"construction ({construction:.0f} ns)"
                ),
            )
        return None
