"""Execution of every query plan, on one device or many.

Every query runs through :class:`ShardedQueryExecutor`: a single device
is a one-shard :class:`~repro.shard.collection.ShardSet`, so a
single-device query is just a plan with one
:class:`~repro.shard.planner.FragmentStep` of one fragment.  The
executor walks the plan's steps in order:

* a :class:`~repro.shard.planner.FragmentStep` executes its per-shard
  physical plans through the single-fragment
  :class:`~repro.query.executor.QueryExecutor` engine, each under that
  shard's child share of the bufferpool the executor was given;
* an :class:`~repro.shard.planner.ExchangeStep` runs in two barrier
  phases -- every source shard scans its input (charging reads on the
  source device when the input is materialized), then every destination
  shard bulk-appends its bucket from each source (charging writes on the
  destination device).  A materialized source was routed by the planner,
  so its scan only pays for the read and the planned buckets are written;
  a source changed since planning raises
  :class:`~repro.exceptions.CollectionStateError`.  A fragment's pipelined
  output is routed block by block as it is scanned.

Each step runs its shard tasks one after another, in shard order, on the
calling thread -- under the workload scheduler, the session's one serial
worker, so no other query touches a device meanwhile.  Every task still
measures its own I/O with a device snapshot delta, and the plan's
critical path prices the shards of a step as running concurrently on
their own devices, as the planner priced them.

A query owns every store it creates: its fragments' sinks, its runtime
contexts' materializations and its exchange destinations are adopted by
one :class:`~repro.storage.collection.StoreOwner` and dropped when the
query ends, on success or failure; only a result the plan materialized
on the device stays.

The bufferpool handed to the executor is treated as externally owned
(typically a per-query share carved by the admission controller): the
executor carves per-shard child shares from it and closes only those,
never the pool itself.

The result merges the per-shard outputs (an ordered merge for a root
OrderBy, concatenation otherwise; a one-shard plan keeps its fragment's
own output) into one collection, sums the per-shard
:class:`~repro.pmem.metrics.IOSnapshot` deltas, and reports the critical
path: per step, the slowest shard's simulated time, summed over steps --
the makespan of the parallel execution, and the whole device time of a
one-shard plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.exceptions import CollectionStateError, ConfigurationError
from repro.pmem.metrics import IOSnapshot, critical_path_ns, sum_snapshots
from repro.query.executor import FragmentResult, QueryExecutor
from repro.shard.collection import ShardSet
from repro.shard.planner import ExchangeStep, FragmentStep, ShardedPhysicalPlan
from repro.storage.bufferpool import Bufferpool
from repro.storage.collection import (
    CollectionStatus,
    PersistentCollection,
    StoreOwner,
)
from repro.storage.runs import merge_streams


@dataclass
class QueryResult:
    """Outcome of one query execution (one shard or many)."""

    plan: ShardedPhysicalPlan
    #: Final output: the fragment's own root output on one shard, else the
    #: merged shard outputs (in DRAM).
    output: PersistentCollection
    #: Summed device I/O across every shard.
    io: IOSnapshot
    #: Per-shard I/O over the whole execution, in shard order.
    per_shard_io: list[IOSnapshot]
    #: Simulated makespan: per step, the slowest shard, summed over steps.
    critical_path_ns: float
    #: Critical-path cacheline traffic (reads + writes of the slowest
    #: shard per step, summed over steps).
    critical_path_cachelines: float
    #: Per-step, per-shard I/O deltas keyed by step index.
    step_io: dict = field(default_factory=dict)
    #: Per-fragment-step, per-shard :class:`FragmentResult` lists.
    fragment_results: dict = field(default_factory=dict)
    #: Records moved per exchange step, keyed by step index.
    exchange_records: dict = field(default_factory=dict)

    @property
    def records(self) -> list[tuple]:
        return self.output.records

    @property
    def executions(self) -> dict:
        """Per-node actuals of every fragment, keyed by ``id(planned_node)``."""
        executions: dict = {}
        for results in self.fragment_results.values():
            for result in results:
                executions.update(result.executions)
        return executions

    @property
    def runtime_contexts(self) -> list:
        """The Section 3.1 runtime contexts of fragments that deferred an edge."""
        return [
            result.runtime_context
            for results in self.fragment_results.values()
            for result in results
            if result.runtime_context is not None
        ]

    @property
    def simulated_seconds(self) -> float:
        """Parallel wall-clock on the simulated devices (the makespan)."""
        return self.critical_path_ns / 1e9

    @property
    def summed_seconds(self) -> float:
        """Total device-time across all shards (the resource cost)."""
        return self.io.total_ns / 1e9

    def explain(self) -> str:
        """The plan rendering with per-shard estimated vs. actual I/O."""
        return self.plan.explain(self)


class ShardedQueryExecutor:
    """Runs query plans over a shard set.

    Args:
        shard_set: the devices/backends the plan's collections live on;
            a plan may also be placed on a one-shard subset of it.
        bufferpool: externally-owned pool (e.g. the query's admitted
            share) the per-shard child shares are carved from.  Shares
            are reserved up front, so the fragments of a step, priced as
            concurrent, can never jointly exceed it, and the executor
            never closes the pool itself.
    """

    def __init__(self, shard_set: ShardSet, bufferpool: Bufferpool) -> None:
        self.shard_set = shard_set
        self.bufferpool = bufferpool

    def execute(self, plan: ShardedPhysicalPlan) -> QueryResult:
        """Run a planned query."""
        # Rejects a plan placed on devices outside this executor's set.
        self.shard_set.positions_of(plan.shard_set)
        shares: list[Bufferpool] = []
        stores = StoreOwner()
        result = None
        try:
            if plan.num_shards > 1:
                for index in range(plan.num_shards):
                    shares.append(
                        self.bufferpool.share(
                            nbytes=plan.shard_budget.nbytes, owner=f"shard{index}"
                        )
                    )
            # One shard has nothing to split: its fragment runs under the pool.
            result = self._run(plan, shares or [self.bufferpool], stores)
            return result
        finally:
            # The query's stores go when it ends; only its result stays.
            stores.release(keep=[result.output] if result is not None else ())
            for share in shares:
                share.close()

    # ------------------------------------------------------------------ #
    # Step execution.
    # ------------------------------------------------------------------ #
    def _run(self, plan, shares, stores: StoreOwner) -> QueryResult:
        num_shards = plan.num_shards
        fragment_outputs: dict[int, list[PersistentCollection]] = {}
        fragment_results: dict[int, list[FragmentResult]] = {}
        exchange_records: dict[int, int] = {}
        step_io: dict[int, list[IOSnapshot]] = {}
        critical_ns = 0.0
        critical_cachelines = 0.0
        for step in plan.steps:
            if isinstance(step, FragmentStep):
                results = [
                    QueryExecutor(share, stores).execute(fragment)
                    for share, fragment in zip(shares, step.fragments)
                ]
                fragment_outputs[step.index] = [r.output for r in results]
                fragment_results[step.index] = results
                # A fragment's io is the device delta taken around its run.
                deltas = [result.io for result in results]
                critical_ns += critical_path_ns(deltas)
                critical_cachelines += max(
                    delta.total_cachelines for delta in deltas
                )
            elif isinstance(step, ExchangeStep):
                moved, deltas, phase_ns, phase_cachelines = self._run_exchange(
                    step, fragment_outputs, plan.shard_set.devices, stores
                )
                exchange_records[step.index] = moved
                critical_ns += phase_ns
                critical_cachelines += phase_cachelines
            else:  # pragma: no cover - the planner only emits the two kinds
                raise ConfigurationError(f"unknown plan step {type(step).__name__}")
            step_io[step.index] = deltas
        per_shard_io = [
            sum_snapshots(step_io[step.index][shard] for step in plan.steps)
            for shard in range(num_shards)
        ]
        output = self._merge(plan, fragment_outputs[plan.final_step_index])
        return QueryResult(
            plan=plan,
            output=output,
            io=sum_snapshots(per_shard_io),
            per_shard_io=per_shard_io,
            critical_path_ns=critical_ns,
            critical_path_cachelines=critical_cachelines,
            step_io=step_io,
            fragment_results=fragment_results,
            exchange_records=exchange_records,
        )

    def _run_exchange(
        self, step: ExchangeStep, fragment_outputs, devices, stores
    ) -> tuple[int, list[IOSnapshot], float, float]:
        """Run the two exchange phases; returns (records moved, per-shard
        deltas, critical ns, critical cachelines).

        The phases are barriers -- every destination waits for the slowest
        reader before writing -- so the step's critical path is the
        slowest read *plus* the slowest write, matching
        :attr:`ExchangeStep.est_critical_ns`, not the maximum of one
        device's combined delta.  Each phase task measures its own device
        delta.
        """
        if step.sources is not None:
            sources = step.sources
        else:
            sources = fragment_outputs[step.source_fragment]
        num_shards = len(step.dests)
        split = step.partitioner.split

        # Phase 1 (per source shard): scan and bucket.  Reads are
        # charged on the source device iff the source is materialized.  A
        # materialized source was routed by the planner: it is charged a
        # full scan without being read, and the planned buckets go to the
        # writers.
        def read_and_bucket(index: int):
            device = devices[index]
            before = device.snapshot()
            source = sources[index]
            if step.buckets is not None:
                records, length = step.routed_from[index]
                if source.records is not records or len(records) != length:
                    raise CollectionStateError(
                        f"exchange source {source.name!r} changed after the "
                        "query was planned; plan the query again"
                    )
                source.charge_rescan()
                return step.buckets[index], device.snapshot() - before
            buckets: list[list[tuple]] = [[] for _ in range(num_shards)]
            for block in source.scan_blocks():
                for bucket, part in zip(buckets, split(block)):
                    bucket.extend(part)
            return buckets, device.snapshot() - before

        read_results = [read_and_bucket(index) for index in range(len(sources))]
        all_buckets = [buckets for buckets, _ in read_results]
        read_deltas = [delta for _, delta in read_results]

        # Phase 2 (per destination shard): bulk-append the
        # destination's share from every source, charging its own device.
        def write_destination(dest_index: int):
            device = devices[dest_index]
            before = device.snapshot()
            dest = stores.adopt(step.dests[dest_index])
            # Destinations are planned in the MEMORY state (DROPPED once an
            # execution of the plan ended); a fresh store on this shard's
            # backend takes the writes, and the query drops it when it ends.
            dest.mark_materialized()
            moved = 0
            for buckets in all_buckets:
                bucket = buckets[dest_index]
                dest.extend(bucket)
                moved += len(bucket)
            dest.seal()
            return moved, device.snapshot() - before

        write_results = [write_destination(index) for index in range(num_shards)]
        moved = sum(count for count, _ in write_results)
        write_deltas = [delta for _, delta in write_results]
        deltas = [read + write for read, write in zip(read_deltas, write_deltas)]
        phase_ns = critical_path_ns(read_deltas) + critical_path_ns(write_deltas)
        phase_cachelines = max(
            delta.total_cachelines for delta in read_deltas
        ) + max(delta.total_cachelines for delta in write_deltas)
        return moved, deltas, phase_ns, phase_cachelines

    # ------------------------------------------------------------------ #
    # Result merge.
    # ------------------------------------------------------------------ #
    def _merge(self, plan, outputs: list[PersistentCollection]):
        if len(outputs) == 1:
            return outputs[0]
        merged = PersistentCollection(
            name="sharded-result",
            schema=plan.root_schema,
            status=CollectionStatus.MEMORY,
        )
        merge_kind, merge_key = plan.merge
        if merge_kind == "ordered":
            merged.extend(
                merge_streams(
                    [output.records for output in outputs], itemgetter(merge_key)
                )
            )
        else:
            for output in outputs:
                merged.extend(output.records)
        merged.seal()
        return merged

