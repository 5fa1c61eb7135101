"""Cost-based physical planning.

The planner walks a logical plan bottom-up and, for every node, prices the
applicable physical operators with the paper's Section 2 analytical cost
models -- parametrized on the device's write/read asymmetry ``lambda``,
its geometry, and the DRAM :class:`~repro.storage.bufferpool.MemoryBudget`
-- then keeps the cheapest:

* ``OrderBy`` chooses among external mergesort, lazy sort, hybrid sort and
  segment sort (Section 2.1);
* ``Join`` chooses among block nested loops, Grace join (only when the
  paper's ``M > sqrt(f |T|)`` applicability condition holds), simple hash
  join, lazy hash join, segmented Grace join and the hybrid
  Grace/nested-loops join (Section 2.2), putting the smaller estimated
  input on the build side;
* ``GroupBy`` chooses between hash aggregation (with a spill penalty once
  the estimated group state outgrows the budget) and sorted aggregation
  over the cheapest pipelined sort.

Cardinality estimation is deliberately simple -- ``Filter`` scales by its
declared selectivity, an equi-join is estimated at the size of its larger
input (the paper's 1:N fanout workloads), and ``GroupBy`` defaults to one
group per record unless told otherwise.  Histogram-based estimation is an
open roadmap item.

The execution convention the estimates assume matches
:class:`repro.query.executor.QueryExecutor`: every operator's output is
materialized on the persistent device except the plan root, which stays in
DRAM (the paper factors final-output writes out of its comparisons) unless
:meth:`PhysicalPlan.materialize_root` asks for the result on the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.aggregation.operators import HashAggregation, SortedAggregation
from repro.exceptions import (
    ConfigurationError,
    CostModelError,
    InsufficientMemoryError,
)
from repro.joins import (
    GraceJoin,
    HybridGraceNestedLoopsJoin,
    LazyHashJoin,
    NestedLoopsJoin,
    SegmentedGraceJoin,
    SimpleHashJoin,
)
from repro.joins import cost as join_cost
from repro.pmem.backends.base import PersistenceBackend
from repro.query.logical import (
    Filter,
    GroupBy,
    Join,
    LogicalNode,
    OrderBy,
    Project,
    Query,
    Scan,
)
from repro.query.physical import BOUNDARY_POLICIES, Boundary, BoundaryKind
from repro.sorts import ExternalMergeSort, HybridSort, LazySort, SegmentSort
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import Schema

#: Sort operators the planner enumerates for ``OrderBy`` nodes.
SORT_ALTERNATIVES = {
    "ExMS": ExternalMergeSort,
    "LaS": LazySort,
    "HybS": HybridSort,
    "SegS": SegmentSort,
}

#: Join operators the planner enumerates for ``Join`` nodes.
JOIN_ALTERNATIVES = {
    "NLJ": NestedLoopsJoin,
    "GJ": GraceJoin,
    "HJ": SimpleHashJoin,
    "LaJ": LazyHashJoin,
    "SegJ": SegmentedGraceJoin,
    "HybJ": HybridGraceNestedLoopsJoin,
}


@dataclass
class PlannedNode:
    """One node of a physical plan.

    ``factory(bufferpool=...)`` builds the configured algorithm for nodes
    backed by a sort/join/aggregation; it is the same partial the planner
    priced.  Structural nodes (scan, filter, project) carry ``None`` and
    are executed directly by the executor.
    """

    logical: LogicalNode
    #: Chosen physical operator label (e.g. ``"LaS"``, ``"GJ"``, ``"HashAgg"``).
    operator: str
    schema: Schema
    est_records: float
    #: Estimated device time of this node alone (children excluded), ns;
    #: includes the output-settlement write when ``materialized``.
    est_cost_ns: float
    #: Every alternative the planner priced, label -> Section 2 model ns.
    #: Model prices compare across alternatives but exclude the node's
    #: output-settlement adjustment, so they need not match ``est_cost_ns``.
    alternatives: dict[str, float] = field(default_factory=dict)
    #: How this node's output edge moves data to its consumer.  Scans (and
    #: any other node left at the default) count as materialized: their
    #: collections already live on the device.
    boundary: Boundary = field(default_factory=Boundary)
    factory: Optional[Callable[..., object]] = None
    children: tuple["PlannedNode", ...] = ()
    #: Operator-specific planning details (e.g. ``swapped`` for joins).
    extra: dict = field(default_factory=dict)

    @property
    def materialized(self) -> bool:
        """Whether this node's output is written to the persistent device."""
        return self.boundary.kind is BoundaryKind.MATERIALIZE

    def walk(self):
        """Yield the subtree nodes in depth-first, children-first order."""
        for child in self.children:
            yield from child.walk()
        yield self


def output_write_cost_ns(
    backend: PersistenceBackend, est_records: float, schema: Schema
) -> float:
    """Cost of materializing ``est_records`` of ``schema`` on the device."""
    device = backend.device
    buffers = device.geometry.bytes_to_cachelines(est_records * schema.record_bytes)
    return buffers * device.write_read_ratio * device.latency.read_ns


@dataclass
class PhysicalPlan:
    """A planned query: the physical tree plus the planning context."""

    root: PlannedNode
    backend: PersistenceBackend
    budget: MemoryBudget

    @property
    def total_estimated_cost_ns(self) -> float:
        return sum(node.est_cost_ns for node in self.root.walk())

    def materialize_root(self) -> None:
        """Mark the root's output for device materialization.

        Re-adds the output-write term the planner removed when it pinned
        the root to DRAM, keeping the estimate aligned with what the
        executor's settlement step will charge.  Idempotent.
        """
        if self.root.materialized:
            return
        self.root.boundary = Boundary(
            kind=BoundaryKind.MATERIALIZE,
            priced=dict(self.root.boundary.priced),
            reason="materialize_result requested",
        )
        self.root.est_cost_ns += output_write_cost_ns(
            self.backend, self.root.est_records, self.root.schema
        )

    def explain(self, executions: dict | None = None) -> str:
        """Render the plan, one line per node plus a total summary line.

        Each line shows the chosen operator, its boundary decision
        (pipelined / deferred edges report the settlement write they
        avoid, estimated vs. actual once executed), the estimated output
        cardinality, the estimated weighted-cacheline I/O and the
        estimated elapsed nanoseconds; after execution the executor passes
        per-node actuals and the rendering shows estimated vs. actual side
        by side.
        """
        read_ns = self.backend.device.latency.read_ns
        lam = self.backend.device.write_read_ratio
        lines = [
            f"physical plan (lambda={lam:.1f}, "
            f"M={self.budget.buffers:.0f} cachelines, "
            f"backend={self.backend.name})"
        ]
        self._render(self.root, "", True, lines, read_ns, lam, executions)
        est_total = sum(node.est_cost_ns for node in self.root.walk())
        summary = f"total: est {est_total:.0f} ns"
        if executions:
            actual_total = sum(
                executions[id(node)].io.total_ns
                for node in self.root.walk()
                if id(node) in executions
            )
            summary += f" / actual {actual_total:.0f} ns"
        lines.append(summary)
        return "\n".join(lines)

    def explain_lines(
        self, executions: dict | None = None, prefix: str = ""
    ) -> list[str]:
        """The headerless per-node rendering, one line per node.

        Used by the sharded plan rendering to embed each shard's fragment
        tree under its own indentation.
        """
        read_ns = self.backend.device.latency.read_ns
        lam = self.backend.device.write_read_ratio
        lines: list[str] = []
        self._render(self.root, prefix, True, lines, read_ns, lam, executions)
        return lines

    def _render(self, node, prefix, is_root, lines, read_ns, lam, executions):
        est_weighted = node.est_cost_ns / read_ns
        boundary = node.boundary
        tag = ""
        if not isinstance(node.logical, Scan):
            if boundary.kind is BoundaryKind.PIPELINE:
                tag = " (pipelined)"
            elif boundary.kind is BoundaryKind.DEFER:
                tag = " (deferred)"
        text = (
            f"{node.logical.describe()} -> {node.operator}{tag}"
            f" | est {node.est_records:.0f} rec,"
            f" {est_weighted:.0f} wcl, {node.est_cost_ns:.0f} ns"
        )
        execution = (executions or {}).get(id(node))
        if execution is not None:
            actual_weighted = execution.io.weighted_cachelines(lam)
            text += (
                f" | actual {execution.records} rec, {actual_weighted:.0f} wcl"
                f" ({execution.io.cacheline_reads:.0f}r/"
                f"{execution.io.cacheline_writes:.0f}w)"
                f", {execution.io.total_ns:.0f} ns"
            )
        if not isinstance(node.logical, Scan) and not boundary.is_materialize:
            saved_est = boundary.est_saved_write_ns / read_ns
            text += f" | {boundary.describe()} saves est {saved_est:.0f} wclw"
            if execution is not None:
                saved_actual = self._actual_saved_wclw(node, execution, lam)
                text += f" / actual {saved_actual:.0f} wclw"
        if len(node.alternatives) > 1:
            ranked = sorted(node.alternatives.items(), key=lambda item: item[1])
            # Raw Section 2 model prices: comparable across alternatives,
            # but excluding the output-settlement term folded into ``est``.
            text += (
                " | models: "
                + ", ".join(f"{label} {ns / read_ns:.0f}" for label, ns in ranked)
            )
        lines.append(prefix + ("" if is_root else "+- ") + text)
        child_prefix = prefix if is_root else prefix + "   "
        for child in node.children:
            self._render(child, child_prefix, False, lines, read_ns, lam, executions)

    def _actual_saved_wclw(self, node, execution, lam: float) -> float:
        """Weighted cachelines the boundary actually avoided writing.

        A deferred edge the runtime rules overrode (``deferred: False`` in
        the execution details) saved nothing -- its records were produced
        on the device after all.
        """
        if execution.details.get("deferred") is False:
            return 0.0
        geometry = self.backend.device.geometry
        cachelines = geometry.bytes_to_cachelines(
            execution.records * node.schema.record_bytes
        )
        return cachelines * lam


class CostBasedPlanner:
    """Chooses physical operators by pricing the Section 2 cost models.

    After operator selection, a second pass prices every producer->
    consumer edge and records a :class:`~repro.query.physical.Boundary`
    decision on the producing node: keep the classical materialized
    handoff, pipeline the intermediate in DRAM, or defer it entirely
    (filter edges only) so the consumer re-derives the records through
    the Section 3.1 runtime.

    Args:
        backend: persistence backend (and through it the device whose
            ``lambda`` and geometry parametrize every model).
        budget: DRAM budget shared by the whole plan; one operator runs at
            a time, so each node may use the full budget.
        boundary_policy: ``"cost"`` (price each edge, the default) or a
            forced policy -- ``"materialize"`` (the pre-boundary legacy
            behavior), ``"pipeline"`` (every edge in DRAM) or ``"defer"``
            (defer wherever structurally possible, materialize the rest).
    """

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        boundary_policy: str = "cost",
    ) -> None:
        if boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigurationError(
                f"unknown boundary policy {boundary_policy!r}; expected one "
                f"of {', '.join(BOUNDARY_POLICIES)}"
            )
        self.backend = backend
        self.budget = budget
        self.boundary_policy = boundary_policy
        device = backend.device
        self.read_ns = device.latency.read_ns
        self.lam = device.write_read_ratio
        self._bytes_to_buffers = device.geometry.bytes_to_cachelines

    def plan(self, query) -> PhysicalPlan:
        """Plan a :class:`~repro.query.logical.Query` (or bare node) as one
        single-device fragment.

        Whole queries are planned by
        :class:`~repro.shard.planner.ShardedPlanner`, which calls this
        planner once per shard fragment; sharded collections are rejected
        here.
        """
        node = query.node if isinstance(query, Query) else query
        if not isinstance(node, LogicalNode):
            raise ConfigurationError(
                f"cannot plan a {type(query).__name__}; expected a Query or "
                "logical node (whole query plans run through "
                "repro.shard.ShardedQueryExecutor or repro.Session)"
            )
        root = self._plan_node(node)
        self._decide_boundaries(root)
        # The root stays in DRAM: the paper factors the final-output write
        # out of its comparisons.  The executor re-adds it on request.
        self._pipeline_root(root)
        return PhysicalPlan(root=root, backend=self.backend, budget=self.budget)

    # ------------------------------------------------------------------ #
    # Node dispatch.
    # ------------------------------------------------------------------ #
    def _plan_node(self, node: LogicalNode) -> PlannedNode:
        if isinstance(node, Scan):
            return self._plan_scan(node)
        if isinstance(node, Filter):
            return self._plan_filter(node)
        if isinstance(node, Project):
            return self._plan_project(node)
        if isinstance(node, Join):
            return self._plan_join(node)
        if isinstance(node, OrderBy):
            return self._plan_order_by(node)
        if isinstance(node, GroupBy):
            return self._plan_group_by(node)
        raise ConfigurationError(f"unknown logical node {type(node).__name__}")

    def _plan_scan(self, node: Scan) -> PlannedNode:
        if getattr(node.collection, "is_sharded", False):
            raise ConfigurationError(
                f"collection {node.collection.name!r} is sharded; plan the "
                "query with repro.shard.ShardedPlanner (or run it through "
                "repro.Session)"
            )
        # Reads are charged to the consuming operator, so a scan itself is
        # free; its collection is already materialized.  ``est_records``
        # overrides the actual cardinality for collections that are still
        # empty at plan time (exchange destinations).
        est_records = (
            node.est_records
            if node.est_records is not None
            else float(len(node.collection))
        )
        return PlannedNode(
            logical=node,
            operator="Scan",
            schema=node.output_schema(),
            est_records=est_records,
            est_cost_ns=0.0,
        )

    def _plan_filter(self, node: Filter) -> PlannedNode:
        child = self._plan_node(node.child)
        est_records = child.est_records * node.selectivity
        cost_ns = self._scan_cost_ns(child) + self._write_cost_ns(
            est_records, node.output_schema()
        )
        return PlannedNode(
            logical=node,
            operator="Filter",
            schema=node.output_schema(),
            est_records=est_records,
            est_cost_ns=cost_ns,
            children=(child,),
        )

    def _plan_project(self, node: Project) -> PlannedNode:
        child = self._plan_node(node.child)
        cost_ns = self._scan_cost_ns(child) + self._write_cost_ns(
            child.est_records, node.output_schema()
        )
        return PlannedNode(
            logical=node,
            operator="Project",
            schema=node.output_schema(),
            est_records=child.est_records,
            est_cost_ns=cost_ns,
            children=(child,),
        )

    def _plan_join(self, node: Join) -> PlannedNode:
        left = self._plan_node(node.left)
        right = self._plan_node(node.right)
        # The paper's convention: the build input T is the smaller one.
        swapped = right.est_records * right.schema.record_bytes < (
            left.est_records * left.schema.record_bytes
        )
        build, probe = (right, left) if swapped else (left, right)
        build_buffers = max(1.0, self._buffers(build.est_records, build.schema))
        probe_buffers = max(1.0, self._buffers(probe.est_records, probe.schema))

        builds = {
            label: partial(
                join_class,
                self.backend,
                self.budget,
                left_schema=build.schema,
                right_schema=probe.schema,
                materialize_output=False,
            )
            for label, join_class in JOIN_ALTERNATIVES.items()
        }
        priced = dict(builds)
        if not join_cost.grace_applicable(build_buffers, self.budget.buffers):
            del priced["GJ"]
        alternatives = self._price(
            priced,
            lambda candidate: candidate.estimated_cost_ns(build_buffers, probe_buffers),
        )
        operator, model_ns = self._cheapest(alternatives, "NLJ")

        est_records = max(left.est_records, right.est_records)
        out_schema = node.output_schema()
        cost_ns = model_ns + self._write_cost_ns(est_records, out_schema)
        return PlannedNode(
            logical=node,
            operator=operator,
            schema=out_schema,
            est_records=est_records,
            est_cost_ns=cost_ns,
            alternatives=alternatives,
            factory=builds[operator],
            children=(left, right),
            extra={"swapped": swapped},
        )

    def _plan_order_by(self, node: OrderBy) -> PlannedNode:
        child = self._plan_node(node.child)
        sort_schema = node.sort_schema()
        input_buffers = max(1.0, self._buffers(child.est_records, sort_schema))
        builds = self._sort_builds(sort_schema)
        alternatives = self._price_sorts(builds, input_buffers)
        operator, model_ns = self._cheapest(alternatives, "ExMS")
        # The Section 2.1 models include writing the sorted output once
        # (identically across algorithms); the executor's copy-out step
        # realizes exactly that write, so the model is used as-is.
        return PlannedNode(
            logical=node,
            operator=operator,
            schema=sort_schema,
            est_records=child.est_records,
            est_cost_ns=model_ns,
            alternatives=alternatives,
            factory=builds[operator],
            children=(child,),
        )

    def _plan_group_by(self, node: GroupBy) -> PlannedNode:
        child = self._plan_node(node.child)
        out_schema = node.output_schema()
        groups = float(node.estimated_groups or max(1.0, child.est_records))
        group_schema = Schema(
            num_fields=child.schema.num_fields,
            field_bytes=child.schema.field_bytes,
            key_index=node.group_index,
        )
        input_buffers = max(1.0, self._buffers(child.est_records, group_schema))

        aggregation = dict(
            group_index=node.group_index,
            aggregates=node.aggregate_spec(),
            schema=child.schema,
            materialize_output=False,
        )
        builds = {
            "HashAgg": partial(
                HashAggregation, self.backend, self.budget, **aggregation
            )
        }
        alternatives = {"HashAgg": self._hash_aggregation_cost_ns(input_buffers, groups)}
        sort_builds = self._sort_builds(group_schema)
        sort_alternatives = self._price_sorts(sort_builds, input_buffers)
        if sort_alternatives:
            best_sort, sort_ns = min(
                sort_alternatives.items(), key=lambda item: item[1]
            )
            label = f"SortAgg[{best_sort}]"
            builds[label] = partial(
                SortedAggregation,
                self.backend,
                self.budget,
                sort_class=SORT_ALTERNATIVES[best_sort],
                **aggregation,
            )
            # The aggregation pipelines the sort (no sorted-output write);
            # subtract the model's uniform output term.
            alternatives[label] = max(
                0.0, sort_ns - input_buffers * self.lam * self.read_ns
            )
        operator, model_ns = self._cheapest(alternatives, "HashAgg")

        cost_ns = model_ns + self._write_cost_ns(groups, out_schema)
        return PlannedNode(
            logical=node,
            operator=operator,
            schema=out_schema,
            est_records=groups,
            est_cost_ns=cost_ns,
            alternatives=alternatives,
            factory=builds[operator],
            children=(child,),
            extra={"estimated_groups": groups},
        )

    # ------------------------------------------------------------------ #
    # Pricing helpers.
    # ------------------------------------------------------------------ #
    def _sort_builds(self, schema: Schema) -> dict[str, partial]:
        """One pipelined-output sort partial per alternative."""
        return {
            label: partial(
                sort_class,
                self.backend,
                self.budget,
                schema=schema,
                materialize_output=False,
            )
            for label, sort_class in SORT_ALTERNATIVES.items()
        }

    def _price_sorts(
        self, builds: dict[str, partial], input_buffers: float
    ) -> dict[str, float]:
        def price(candidate) -> float:
            if isinstance(candidate, SegmentSort):
                return self._segment_sort_price(candidate, input_buffers)
            return candidate.estimated_cost_ns(input_buffers)

        return self._price(builds, price)

    @staticmethod
    def _price(builds: dict[str, partial], price) -> dict[str, float]:
        """``price(build())`` of every alternative that builds and prices."""
        alternatives: dict[str, float] = {}
        for label, build in builds.items():
            try:
                alternatives[label] = price(build())
            except (CostModelError, ConfigurationError, InsufficientMemoryError):
                continue
        return alternatives

    def _segment_sort_price(self, candidate, input_buffers: float) -> float:
        """Implementation-faithful segment sort price.

        Eq. 1's merge term charges ``|T| r (1+lambda) log_M(x|T|/2M + 1)``,
        which goes *below one pass over the run portion* once the runs fit
        a single merge fan-in.  The implementation still has to merge the
        run portion into the contiguous output exactly once (rewriting
        those x|T| buffers), so pricing with the raw expression
        systematically undercuts segment sort against lazy sort on the
        write-intensity grid.  This price keeps Eq. 1's run-generation and
        selection terms but floors the merge at one pass over x|T|.
        """
        x = candidate.resolve_intensity(input_buffers)
        t = input_buffers
        m = max(self.budget.buffers, 2.0)
        r = self.read_ns
        run_generation = x * t * r * (1.0 + self.lam)
        selection = (1.0 - x) * t * r * ((1.0 - x) * t / m + self.lam)
        merge = 0.0
        if x > 0.0:
            passes = max(1.0, math.log(x * t / (2.0 * m) + 1.0, m))
            merge = x * t * r * (1.0 + self.lam) * passes
        return run_generation + selection + merge

    def _hash_aggregation_cost_ns(self, input_buffers: float, groups: float) -> float:
        """Read the input once; spill-and-reread the overflow group state.

        Mirrors :class:`~repro.aggregation.operators.HashAggregation`: when
        the estimated group state exceeds the budget, the overflowing
        fraction of the input is written to spill partitions and re-read in
        a later pass.
        """
        cost = input_buffers * self.read_ns
        capacity = max(1.0, self.budget.nbytes / HashAggregation.GROUP_STATE_BYTES)
        if groups > capacity:
            overflow_fraction = 1.0 - capacity / groups
            cost += (
                overflow_fraction
                * input_buffers
                * self.read_ns
                * (1.0 + self.lam)
            )
        return cost

    def _cheapest(self, alternatives: dict[str, float], fallback: str):
        if not alternatives:
            return fallback, 0.0
        label = min(alternatives, key=alternatives.get)
        return label, alternatives[label]

    def _buffers(self, est_records: float, schema: Schema) -> float:
        return self._bytes_to_buffers(est_records * schema.record_bytes)

    def _scan_cost_ns(self, child: PlannedNode) -> float:
        """Cost of reading a child's output (free when it stayed in DRAM)."""
        if not child.materialized:
            return 0.0
        return self._buffers(child.est_records, child.schema) * self.read_ns

    def _write_cost_ns(self, est_records: float, schema: Schema) -> float:
        return output_write_cost_ns(self.backend, est_records, schema)

    # ------------------------------------------------------------------ #
    # Boundary decisions (materialize vs. pipeline vs. defer per edge).
    # ------------------------------------------------------------------ #
    def _decide_boundaries(self, root: PlannedNode) -> None:
        """Price and record a boundary for every non-scan plan edge.

        The pass runs after operator selection: each edge is priced as a
        delta against the materialized handoff the Section 2 estimates
        assume, and the chosen boundary adjusts the producing node's
        estimate (no settlement write) and the consuming node's estimate
        (DRAM or re-derived reads instead of device reads).
        """
        for parent in root.walk():
            for index, child in enumerate(parent.children):
                if isinstance(child.logical, Scan):
                    continue
                self._decide_edge(parent, index, child)

    def _decide_edge(self, parent: PlannedNode, index: int, child: PlannedNode):
        policy = self.boundary_policy
        write_ns = self._write_cost_ns(child.est_records, child.schema)
        read_back_ns = self._buffers(child.est_records, child.schema) * self.read_ns
        readback_passes, derive_passes = self._edge_passes(parent, index)
        child.extra["consumer_passes"] = derive_passes
        pipeline_fits = (
            child.est_records * child.schema.record_bytes <= self.budget.nbytes
        )
        derive_read_ns = self._defer_source_read_ns(parent, index, child)

        # Candidate deltas vs. materializing the edge: the child settles
        # its output once (``write_ns``, already in its estimate) and the
        # consumer reads the settled output ``readback_passes`` times.
        candidates = {"materialize": 0.0}
        if pipeline_fits or policy == "pipeline":
            candidates["pipeline"] = -(write_ns + readback_passes * read_back_ns)
        if derive_read_ns is not None:
            # Deferring removes the child's eager source read and its
            # settlement write, and replaces the consumer's read-back with
            # ``derive_passes`` re-derivations of the source.
            candidates["defer"] = (
                (derive_passes - 1.0) * derive_read_ns
                - write_ns
                - readback_passes * read_back_ns
            )

        if policy == "materialize":
            kind, reason = BoundaryKind.MATERIALIZE, "forced by policy"
        elif policy == "pipeline":
            kind, reason = BoundaryKind.PIPELINE, "forced by policy"
        elif policy == "defer":
            if derive_read_ns is not None:
                kind, reason = BoundaryKind.DEFER, "forced by policy"
            else:
                kind = BoundaryKind.MATERIALIZE
                reason = "defer not applicable on this edge"
        else:
            kind, reason = self._cheapest_boundary(
                candidates, pipeline_fits, write_ns, derive_read_ns
            )

        child.boundary = Boundary(
            kind=kind,
            priced=candidates,
            est_saved_write_ns=0.0 if kind is BoundaryKind.MATERIALIZE else write_ns,
            reason=reason,
        )
        if kind is BoundaryKind.PIPELINE:
            child.est_cost_ns = max(0.0, child.est_cost_ns - write_ns)
            parent.est_cost_ns = max(
                0.0, parent.est_cost_ns - readback_passes * read_back_ns
            )
        elif kind is BoundaryKind.DEFER:
            # The child never runs; the consumer re-derives the stream
            # from the filter's source instead of reading the output back.
            child.est_cost_ns = 0.0
            parent.est_cost_ns = max(
                0.0,
                parent.est_cost_ns
                + derive_passes * derive_read_ns
                - readback_passes * read_back_ns,
            )

    def _cheapest_boundary(
        self,
        candidates: dict[str, float],
        pipeline_fits: bool,
        write_ns: float,
        derive_read_ns: Optional[float],
    ):
        """Pick the cheapest admissible boundary (ties prefer pipelining).

        Deferral is only admissible when the settlement write costs more
        than one re-derivation read -- the same comparison the runtime's
        read-over-write rule makes, so the plan never defers an edge the
        rule engine would immediately materialize back.
        """
        best, best_cost, best_reason = "materialize", 0.0, "cheapest boundary"
        if pipeline_fits and candidates.get("pipeline", 0.0) < best_cost:
            best, best_cost = "pipeline", candidates["pipeline"]
            best_reason = "cheapest boundary (fits in the DRAM budget)"
        if (
            derive_read_ns is not None
            and write_ns > derive_read_ns
            and candidates.get("defer", 0.0) < best_cost
        ):
            best, best_cost = "defer", candidates["defer"]
            best_reason = "cheapest boundary (re-derivation beats the write)"
        return BoundaryKind(best), best_reason

    def _edge_passes(self, parent: PlannedNode, child_index: int):
        """``(readback_passes, derive_passes)`` for one consumer input.

        ``readback_passes`` is how many full-input-equivalent reads the
        parent makes over a *settled* (materialized) input;
        ``derive_passes`` is the same volume when the input is re-derived
        from its source instead (a ``DEFER`` boundary).  They differ for
        block nested loops: the build side is read in ``scan(start,
        stop)`` slices -- one pass total over a directly-addressable
        settled collection, but a triangular ``(blocks+1)/2`` passes when
        every slice must re-derive its prefix -- while the probe side is
        fully re-read once per build block in either representation.
        Every other operator's extra passes run over its own partitions
        or runs (charged to that node), not over the input collection.
        """
        if parent.operator == "NLJ":
            build_index = 1 if parent.extra.get("swapped", False) else 0
            build = parent.children[build_index]
            workspace = max(1, self.budget.record_capacity(build.schema))
            blocks = max(1.0, math.ceil(build.est_records / workspace))
            if child_index == build_index:
                return 1.0, (blocks + 1.0) / 2.0
            return blocks, blocks
        return 1.0, 1.0

    def _defer_source_read_ns(
        self, parent: PlannedNode, child_index: int, child: PlannedNode
    ) -> Optional[float]:
        """Cost of one re-derivation, when the edge is structurally deferrable.

        An edge can defer when the child is a ``Filter`` directly over a
        materialized scan (the Section 3.1 runtime re-derives it through a
        recorded ``filter()`` call) and the consumer streams the input
        front to back -- the sort operators are excluded because they
        slice-scan their input by segment, which a re-derived stream
        cannot serve at a priceable cost.
        """
        logical = child.logical
        if not isinstance(logical, Filter) or not isinstance(logical.child, Scan):
            return None
        if parent.operator in SORT_ALTERNATIVES or parent.operator.startswith(
            "SortAgg["
        ):
            return None
        if parent.operator == "HybJ":
            # The hybrid join splits both inputs positionally from their
            # reported lengths; a deferred input only knows an estimate.
            return None
        source = child.children[0]
        return self._buffers(source.est_records, source.schema) * self.read_ns

    def _pipeline_root(self, root: PlannedNode) -> None:
        """Pin the plan root to DRAM (the paper's final-output convention)."""
        if isinstance(root.logical, Scan):
            return
        write_ns = self._write_cost_ns(root.est_records, root.schema)
        root.boundary = Boundary(
            kind=BoundaryKind.PIPELINE,
            est_saved_write_ns=write_ns,
            reason="plan root stays in DRAM unless materialize_result",
        )
        root.est_cost_ns = max(0.0, root.est_cost_ns - write_ns)
