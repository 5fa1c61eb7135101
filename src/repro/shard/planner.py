"""Partitioned physical planning.

The sharded planner decomposes one logical query over
:class:`~repro.shard.collection.ShardedCollection` inputs into an ordered
list of *steps*:

* a :class:`FragmentStep` holds one physical plan per shard -- each
  fragment is planned by the single-device
  :class:`~repro.query.planner.CostBasedPlanner` against its own shard's
  backend and the per-shard slice of the DRAM budget, so every Section 2
  cost model applies unchanged, just with ``|T|/N`` inputs and ``M/N``
  memory;
* an :class:`ExchangeStep` repartitions one intermediate across the shard
  set, priced with the repartition I/O term: a read of the source (free
  when the producing fragment pipelines straight into the exchange) plus
  a ``lambda``-weighted write of every record at its destination shard.
  Materialized sources are routed here, a sealed one once for every plan
  that exchanges it the same way (:meth:`PersistentCollection.routed`):
  the step keeps each source's records split by destination, the
  executor writes those buckets, and each destination's write is priced
  from its true share.

Placement rules: ``Scan``/``Filter``/``Project``/``OrderBy`` are always
shard-local; a ``Join`` is partition-wise when both inputs are
partitioned on their join keys by route-compatible partitioners and
otherwise repartitions the non-conforming side(s); a ``GroupBy`` is
shard-local when its input is partitioned on the group attribute and
otherwise repartitions on it.  A root ``OrderBy``'s shard outputs are merged
order-wise; every other root's are concatenated.

Because the shards are independent simulated devices, a step's fragments
are priced as running concurrently (the executor runs them one after
another on one thread, each measuring its own device), so the plan's
*critical path* -- the sum over steps of the slowest shard in
each step -- is the sharded analogue of a single-device plan's total
cost, and it is what ``explain()`` reports next to the summed per-shard
estimates and actuals.

Every query is planned here, including single-device ones: a single
device is a one-shard :class:`~repro.shard.collection.ShardSet`, and a
query over plain collections is placed on the one shard backend that
holds them.  A one-shard plan is a single :class:`FragmentStep` with no
exchanges and a trivial merge, and it renders exactly like its fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.exceptions import ConfigurationError
from repro.pmem.metrics import sum_snapshots
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
from repro.query.planner import CostBasedPlanner, PhysicalPlan, output_write_cost_ns
from repro.shard.collection import ShardedCollection, ShardSet
from repro.shard.partition import HashPartitioner
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import Schema


@dataclass
class FragmentStep:
    """One plan fragment per shard, priced as running concurrently."""

    index: int
    #: One single-device physical plan per shard, in shard order.
    fragments: list[PhysicalPlan]
    label: str

    @property
    def est_shard_ns(self) -> list[float]:
        return [fragment.total_estimated_cost_ns for fragment in self.fragments]

    @property
    def est_critical_ns(self) -> float:
        return max(self.est_shard_ns)

    @property
    def est_total_ns(self) -> float:
        return sum(self.est_shard_ns)


@dataclass
class ExchangeStep:
    """Repartition an intermediate across the shard set.

    The exchange reads its per-shard sources (either materialized
    collections, charged on the source shard's device, or the pipelined
    DRAM outputs of ``source_fragment``, free), routes every record with
    ``partitioner``, and writes each destination shard's share to that
    shard's device.  Materialized sources exist at plan time, so they are
    routed by the planner, into ``buckets`` (shared by every plan over
    the same sealed source and partitioner); fragment outputs are routed
    block by block as the executor reads them.
    """

    index: int
    partitioner: HashPartitioner
    schema: Schema
    #: Materialized per-shard sources; ``None`` when fed by a fragment.
    sources: Optional[list[PersistentCollection]]
    #: Index of the :class:`FragmentStep` producing the input, if any.
    source_fragment: Optional[int]
    dests: list[PersistentCollection]
    est_records: float
    #: Estimated read cost per source shard (zero when pipelined), ns.
    est_read_ns: list[float] = field(default_factory=list)
    #: Estimated write cost per destination shard, ns.
    est_write_ns: list[float] = field(default_factory=list)
    reason: str = ""
    #: Per source shard, its records split by destination shard at plan
    #: time; ``None`` when fed by a fragment.
    buckets: Optional[list[list[list[tuple]]]] = field(
        default=None, repr=False, compare=False
    )
    #: Per source shard, the record list the buckets were routed from and
    #: its length then: a source cleared (a new list) or appended to since
    #: planning no longer matches, and the executor refuses the step.
    routed_from: Optional[list[tuple[list[tuple], int]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def est_critical_ns(self) -> float:
        # The read and write phases are barriers: every destination waits
        # for the slowest reader, then destinations write concurrently.
        return max(self.est_read_ns, default=0.0) + max(self.est_write_ns, default=0.0)

    @property
    def est_total_ns(self) -> float:
        return sum(self.est_read_ns) + sum(self.est_write_ns)


Step = Union[FragmentStep, ExchangeStep]


@dataclass
class ShardedPhysicalPlan:
    """A partitioned query plan: ordered steps plus the merge policy."""

    #: Tells this plan type apart from a fragment's :class:`PhysicalPlan`
    #: for callers outside the library; the library itself never asks.
    is_sharded_plan = True

    shard_set: ShardSet
    budget: MemoryBudget
    shard_budget: MemoryBudget
    steps: list[Step]
    #: Step index of the final fragment step (always the last step).
    final_step_index: int
    #: ``("ordered", key_index)`` for a root OrderBy, else ``("concat", None)``.
    merge: tuple[str, Optional[int]]
    root_schema: Schema

    @property
    def final_step(self) -> FragmentStep:
        return self.steps[self.final_step_index]

    def materialize_root(self) -> None:
        """Write the final output to the device instead of DRAM.

        Only a one-shard plan can: its output is its fragment's root.  A
        multi-shard plan merges its shard outputs in DRAM.
        """
        if self.num_shards > 1:
            raise ConfigurationError(
                "materialize_result is not supported on sharded queries: "
                "the sharded executor merges shard outputs in DRAM"
            )
        self.final_step.fragments[0].materialize_root()

    @property
    def num_shards(self) -> int:
        return self.shard_set.num_shards

    @property
    def estimated_critical_path_ns(self) -> float:
        """Sum over steps of the slowest shard: the parallel makespan."""
        return sum(step.est_critical_ns for step in self.steps)

    @property
    def estimated_total_ns(self) -> float:
        """Summed estimated device time across every shard and exchange."""
        return sum(step.est_total_ns for step in self.steps)

    def explain(self, result=None) -> str:
        """Render the sharded plan, optionally with per-shard actuals.

        ``result`` is a :class:`~repro.shard.executor.QueryResult`; when
        given, every fragment line shows estimated vs. actual weighted
        cacheline I/O and the summary reports the actual critical path
        next to the estimate.  A one-shard plan renders as its fragment.
        """
        if self.num_shards == 1:
            fragment = self.final_step.fragments[0]
            return fragment.explain(result.executions if result else None)
        device = self.shard_set.backends[0].device
        read_ns = device.latency.read_ns
        lam = device.write_read_ratio
        to_wcl = lambda ns: ns / read_ns  # noqa: E731 - local rendering helper
        lines = [
            f"sharded physical plan (shards={self.num_shards}, "
            f"lambda={lam:.1f}, M={self.budget.buffers:.0f} cachelines "
            f"-> {self.shard_budget.buffers:.0f}/shard, "
            f"backend={self.shard_set.backend_name})"
        ]
        for step in self.steps:
            if isinstance(step, ExchangeStep):
                lines.extend(self._render_exchange(step, result, to_wcl, lam))
            else:
                lines.extend(self._render_fragments(step, result, to_wcl))
        merge_kind, merge_key = self.merge
        merge_text = (
            f"ordered merge on attr {merge_key}"
            if merge_kind == "ordered"
            else "concatenation"
        )
        lines.append(f"merge: {merge_text}")
        summary = (
            f"critical path: est {to_wcl(self.estimated_critical_path_ns):.0f} wcl,"
            f" {self.estimated_critical_path_ns:.0f} ns"
            f" | summed shards: est {to_wcl(self.estimated_total_ns):.0f} wcl,"
            f" {self.estimated_total_ns:.0f} ns"
        )
        if result is not None:
            actual_critical = result.critical_path_ns
            actual_total = sum(io.total_ns for io in result.per_shard_io)
            summary = (
                f"critical path: est {to_wcl(self.estimated_critical_path_ns):.0f}"
                f" / actual {to_wcl(actual_critical):.0f} wcl,"
                f" est {self.estimated_critical_path_ns:.0f}"
                f" / actual {actual_critical:.0f} ns"
                f" | summed shards: est {to_wcl(self.estimated_total_ns):.0f}"
                f" / actual {to_wcl(actual_total):.0f} wcl,"
                f" est {self.estimated_total_ns:.0f}"
                f" / actual {actual_total:.0f} ns"
            )
        lines.append(summary)
        return "\n".join(lines)

    def _render_exchange(self, step, result, to_wcl, lam):
        source = (
            "materialized inputs"
            if step.sources is not None
            else f"pipelined from step {step.source_fragment + 1}"
        )
        lines = [
            f"step {step.index + 1}: exchange on {step.partitioner.describe()}"
            f" [{step.reason}] <- {source}",
            f"   est {step.est_records:.0f} rec moved,"
            f" {to_wcl(step.est_critical_ns):.0f} wcl critical"
            f" ({to_wcl(step.est_total_ns):.0f} summed)",
        ]
        if result is not None:
            ios = result.step_io.get(step.index)
            if ios:
                actual = sum_snapshots(ios)
                moved = result.exchange_records.get(step.index, 0)
                lines.append(
                    f"   actual {moved} rec moved,"
                    f" {actual.weighted_cachelines(lam):.0f} wcl summed"
                    f" ({actual.cacheline_reads:.0f}r/{actual.cacheline_writes:.0f}w)"
                )
        return lines

    def _render_fragments(self, step, result, to_wcl):
        lines = [
            f"step {step.index + 1}: {step.label}"
            f" | est critical {to_wcl(step.est_critical_ns):.0f} wcl"
        ]
        for shard, fragment in enumerate(step.fragments):
            executions = None
            if result is not None:
                fragment_results = result.fragment_results.get(step.index)
                if fragment_results is not None:
                    executions = fragment_results[shard].executions
            lines.append(f"   shard {shard}:")
            lines.extend(fragment.explain_lines(executions, prefix="      "))
        return lines


class ShardedPlanner:
    """Plans every query: sharded collections, or plain ones on one shard.

    Args:
        shard_set: the devices/backends the query's collections live on.
            A query over sharded collections must scan only collections
            of this set; a query over plain collections is placed on the
            one backend of this set that holds them all (any plain
            collection runs on a one-shard set).
        budget: the DRAM budget *this query* runs under -- under workload
            admission control this is the query's admitted
            :class:`~repro.storage.bufferpool.Bufferpool` share, not the
            whole session budget.  Fragments are priced as concurrent,
            so each shard is planned (and later executed) under an even ``1/N``
            slice of it; the slices are enforced at execution time
            through parent/child bufferpool accounting against the
            admitted share.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        budget: MemoryBudget,
        boundary_policy: str = "cost",
    ) -> None:
        self.shard_set = shard_set
        self.budget = budget
        self.boundary_policy = boundary_policy
        num_shards = shard_set.num_shards
        self.shard_budget = MemoryBudget(
            max(budget.nbytes // num_shards, 1),
            cacheline_bytes=budget.cacheline_bytes,
            block_bytes=budget.block_bytes,
        )
        self._read_ns = shard_set.backends[0].device.latency.read_ns
        self._steps: list[Step] = []
        self._exchange_counter = 0

    def plan(self, query) -> ShardedPhysicalPlan:
        """Plan a ``Query`` or logical node."""
        node = query.node if isinstance(query, Query) else query
        if not isinstance(node, LogicalNode):
            raise ConfigurationError(
                f"cannot plan a {type(query).__name__}; expected a Query or "
                "logical node"
            )
        placement = self._placement(node)
        if placement is not self.shard_set:
            return ShardedPlanner(
                placement, self.budget, boundary_policy=self.boundary_policy
            )._plan(node)
        return self._plan(node)

    def _placement(self, node: LogicalNode) -> ShardSet:
        """The shard set the query runs on.

        Queries over sharded collections (and every query on a one-shard
        set) run on the planner's set.  A query over plain collections
        only runs on the one shard backend that holds all of them, so
        plain queries on different shards can run side by side.
        """
        if self.shard_set.num_shards == 1 or find_sharded_collections(node):
            return self.shard_set
        backends = {
            id(scan.collection.backend): scan.collection.backend
            for scan in _scans(node)
        }
        if len(backends) == 1:
            (backend,) = backends.values()
            if backend in self.shard_set.backends:
                return ShardSet([backend])
        raise ConfigurationError(
            "the query scans no sharded collections and its inputs do not "
            "live on a single backend of this ShardSet; load the inputs "
            "into a ShardedCollection (or onto one shard backend) of it"
        )

    def _plan(self, node: LogicalNode) -> ShardedPhysicalPlan:
        self._steps = []
        self._exchange_counter = 0
        per_shard, _ = self._build(node)
        final = self._add_fragment_step(per_shard, "shard-local fragments")
        merge: tuple[str, Optional[int]] = ("concat", None)
        merge_key = self._ordered_merge_key(node)
        if merge_key is not None:
            merge = ("ordered", merge_key)
        return ShardedPhysicalPlan(
            shard_set=self.shard_set,
            budget=self.budget,
            shard_budget=self.shard_budget,
            steps=self._steps,
            final_step_index=final.index,
            merge=merge,
            root_schema=node.output_schema(),
        )

    def _ordered_merge_key(self, node: LogicalNode) -> Optional[int]:
        """Sort attribute governing the root's output order, if any.

        Shard-local outputs stay sorted through the order-preserving
        unary operators (Filter, Project) above an OrderBy -- exactly the
        chain a single-device streaming execution would keep ordered --
        so the executor can reproduce the global order with a keyed
        merge.  A Project that drops the sort attribute, or any other
        operator, loses the order and the shards concatenate.
        """
        if isinstance(node, OrderBy):
            return node.sort_schema().key_index
        if isinstance(node, Filter):
            return self._ordered_merge_key(node.child)
        if isinstance(node, Project):
            child_key = self._ordered_merge_key(node.child)
            if child_key is not None and child_key in node.indices:
                return node.indices.index(child_key)
            return None
        return None

    # ------------------------------------------------------------------ #
    # Logical-tree decomposition.
    # ------------------------------------------------------------------ #
    def _build(
        self, node: LogicalNode
    ) -> tuple[list[LogicalNode], Optional[HashPartitioner]]:
        """Per-shard logical subtrees plus their output partitioning.

        Appends exchange (and producing fragment) steps to ``self._steps``
        whenever the subtree needs data movement.
        """
        if isinstance(node, Scan):
            return self._build_scan(node)
        if isinstance(node, Filter):
            children, partitioner = self._build(node.child)
            return (
                [Filter(child, node.predicate, node.selectivity) for child in children],
                partitioner,
            )
        if isinstance(node, Project):
            return self._build_project(node)
        if isinstance(node, OrderBy):
            children, partitioner = self._build(node.child)
            return (
                [OrderBy(child, node.key_index) for child in children],
                partitioner,
            )
        if isinstance(node, Join):
            return self._build_join(node)
        if isinstance(node, GroupBy):
            return self._build_group_by(node)
        raise ConfigurationError(f"unknown logical node {type(node).__name__}")

    def _build_scan(self, node: Scan):
        collection = node.collection
        if not getattr(collection, "is_sharded", False):
            if self.shard_set.num_shards == 1:
                return [node], None
            raise ConfigurationError(
                f"collection {collection.name!r} is not sharded; a sharded "
                "plan requires every scanned input to be a ShardedCollection "
                "on the planner's shard set"
            )
        if collection.shard_set is not self.shard_set:
            raise ConfigurationError(
                f"sharded collection {collection.name!r} lives on a different "
                "shard set than the planner's"
            )
        if node.est_records is not None:
            # Distribute a caller-supplied cardinality override evenly, as
            # the single-device planner would honor it whole.
            per_shard = node.est_records / collection.num_shards
            return (
                [Scan(shard, est_records=per_shard) for shard in collection.shards],
                collection.partitioner,
            )
        return [Scan(shard) for shard in collection.shards], collection.partitioner

    def _build_project(self, node: Project):
        children, partitioner = self._build(node.child)
        out_partitioner = None
        if partitioner is not None and partitioner.key_index in node.indices:
            out_partitioner = partitioner.with_key_index(
                node.indices.index(partitioner.key_index)
            )
        return (
            [Project(child, node.indices) for child in children],
            out_partitioner,
        )

    def _build_join(self, node: Join):
        left_shards, left_p = self._build(node.left)
        right_shards, right_p = self._build(node.right)
        left_key = node.left.output_schema().key_index
        right_key = node.right.output_schema().key_index
        left_ok = left_p is not None and left_p.key_index == left_key
        right_ok = right_p is not None and right_p.key_index == right_key
        if left_ok:
            routing = left_p
        elif right_ok:
            routing = right_p
        else:
            routing = HashPartitioner(self.shard_set.num_shards)
        # One shard trivially co-locates every key: no movement needed.
        if self.shard_set.num_shards > 1:
            if not (left_ok and left_p.routes_like(routing)):
                left_shards = self._exchange(
                    left_shards,
                    routing.with_key_index(left_key),
                    reason="left input not partitioned on its join key",
                )
            if not (right_ok and right_p.routes_like(routing)):
                right_shards = self._exchange(
                    right_shards,
                    routing.with_key_index(right_key),
                    reason="right input not partitioned on its join key",
                )
        out_partitioner = routing.with_key_index(node.output_schema().key_index)
        return (
            [Join(left, right) for left, right in zip(left_shards, right_shards)],
            out_partitioner,
        )

    def _build_group_by(self, node: GroupBy):
        children, partitioner = self._build(node.child)
        if partitioner is None or partitioner.key_index != node.group_index:
            partitioner = HashPartitioner(
                self.shard_set.num_shards, key_index=node.group_index
            )
            # One shard trivially co-locates every group value.
            if self.shard_set.num_shards > 1:
                children = self._exchange(
                    children,
                    partitioner,
                    reason="input not partitioned on the group attribute",
                )
        # Shard-local grouping is exact: equal group values are co-located,
        # so per-shard groups are disjoint and concatenate without merging.
        return (
            [
                GroupBy(child, node.group_index, node.aggregates, node.estimated_groups)
                for child in children
            ],
            partitioner.with_key_index(0),
        )

    # ------------------------------------------------------------------ #
    # Exchange construction.
    # ------------------------------------------------------------------ #
    def _exchange(
        self,
        per_shard: list[LogicalNode],
        partitioner: HashPartitioner,
        reason: str,
    ) -> list[LogicalNode]:
        """Cut the per-shard subtrees at an exchange; returns dest scans."""
        schema = per_shard[0].output_schema()
        num_shards = self.shard_set.num_shards
        dest_records: Optional[list[float]] = None
        buckets = routed_from = None
        if all(isinstance(node, Scan) for node in per_shard):
            # Bare scans: the exchange reads the materialized shards
            # directly, charging the source devices.  Their records exist
            # already, so they are routed here, through the no-charge
            # ``records`` accessor, and a sealed source only once for any
            # number of plans: the executor still charges a scan of each
            # source, then writes these buckets.
            sources = [node.collection for node in per_shard]
            source_fragment = None
            routed_from = [(source.records, len(source.records)) for source in sources]
            buckets = [source.routed(partitioner) for source in sources]
            shard_records = [
                node.est_records if node.est_records is not None else len(node.collection)
                for node in per_shard
            ]
            est_read_ns = [
                self._scan_ns(records, schema, backend)
                for records, backend in zip(shard_records, self.shard_set.backends)
            ]
            if all(node.est_records is None for node in per_shard):
                # Instead of assuming a uniform 1/N spread, each
                # destination's write is priced with its true share --
                # skewed exchanges show a skewed critical path.
                dest_records = [
                    float(sum(len(split[dest]) for split in buckets))
                    for dest in range(num_shards)
                ]
        else:
            # The producing fragments pipeline their DRAM roots straight
            # into the exchange, so the read side is free.
            step = self._add_fragment_step(per_shard, "exchange input fragments")
            sources = None
            source_fragment = step.index
            shard_records = [
                fragment.root.est_records for fragment in step.fragments
            ]
            est_read_ns = [0.0] * num_shards
        est_records = float(sum(shard_records))
        if dest_records is None:
            dest_records = [est_records / num_shards] * num_shards
        dests = []
        est_write_ns = []
        for index, backend in enumerate(self.shard_set.backends):
            # Created in the MEMORY state so planning stays side-effect
            # free on the devices; the executor's exchange write phase
            # materializes each destination on its shard backend and the
            # store is released again once the query finishes.
            dests.append(
                PersistentCollection(
                    name=f"exchange{self._exchange_counter}/shard{index}",
                    backend=backend,
                    schema=schema,
                    status=CollectionStatus.MEMORY,
                )
            )
            est_write_ns.append(
                output_write_cost_ns(backend, dest_records[index], schema)
            )
        step = ExchangeStep(
            index=len(self._steps),
            partitioner=partitioner,
            schema=schema,
            sources=sources,
            source_fragment=source_fragment,
            dests=dests,
            est_records=est_records,
            est_read_ns=est_read_ns,
            est_write_ns=est_write_ns,
            reason=reason,
            buckets=buckets,
            routed_from=routed_from,
        )
        self._steps.append(step)
        self._exchange_counter += 1
        return [
            Scan(dest, est_records=records)
            for dest, records in zip(dests, dest_records)
        ]

    def _add_fragment_step(
        self, per_shard: list[LogicalNode], label: str
    ) -> FragmentStep:
        fragments = [
            CostBasedPlanner(
                backend, self.shard_budget, boundary_policy=self.boundary_policy
            ).plan(node)
            for backend, node in zip(self.shard_set.backends, per_shard)
        ]
        step = FragmentStep(index=len(self._steps), fragments=fragments, label=label)
        self._steps.append(step)
        return step

    def _scan_ns(self, records: float, schema: Schema, backend) -> float:
        buffers = backend.device.geometry.bytes_to_cachelines(
            records * schema.record_bytes
        )
        return buffers * self._read_ns


def find_sharded_collections(node: LogicalNode) -> list[ShardedCollection]:
    """Every sharded collection scanned anywhere in a logical tree."""
    return [
        scan.collection
        for scan in _scans(node)
        if getattr(scan.collection, "is_sharded", False)
    ]


def _scans(node: LogicalNode):
    if isinstance(node, Scan):
        yield node
    for child in node.children:
        yield from _scans(child)
