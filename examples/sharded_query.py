"""Sharded parallel query execution across simulated devices.

Run with::

    python examples/sharded_query.py

One Wisconsin join workload -- filter the small relation, join it with
the large one, sort the result -- runs three ways:

1. on a single simulated device (the PR-2 query layer);
2. across four shards whose inputs are hash-partitioned on the join key,
   so the join is partition-wise and no data moves between shards; and
3. across four shards whose probe input is partitioned on the *wrong*
   attribute, so the planner inserts a priced repartition exchange.

The point: sharding divides the critical-path (max-over-shards) latency
by roughly the shard count while keeping the summed device traffic flat,
and the exchange's repartition I/O is visible as the gap between
variants 2 and 3.  Each shard's fragment runs under a ``1/N`` child
share of the parent bufferpool, so the concurrent fragments can never
jointly exceed the experiment's DRAM budget.
"""

from repro import (
    HashPartitioner,
    MemoryBudget,
    Query,
    Session,
    ShardSet,
)
from repro.bench.harness import make_environment
from repro.workloads.generator import make_join_inputs

LEFT, RIGHT = 400, 4_000
FRACTION = 0.15
SHARDS = 4


def build_query(orders, lineitems):
    return (
        Query.scan(orders)
        .filter(lambda record: record[0] < 200, selectivity=0.5)
        .join(Query.scan(lineitems))
        .order_by()
    )


def run_single_device():
    env = make_environment("blocked_memory")
    orders, lineitems = make_join_inputs(LEFT, RIGHT, env.backend)
    budget = MemoryBudget.fraction_of(orders, FRACTION)
    with Session(env.backend, budget) as session:
        result = session.query(build_query(orders, lineitems))
    print("=== single device ===")
    print(result.explain())
    print(
        f"-> {len(result.records)} records, "
        f"{result.simulated_seconds * 1e3:.2f} simulated ms, "
        f"{result.io.total_cachelines:.0f} cachelines\n"
    )
    return result


def run_sharded(repartition: bool):
    shard_set = ShardSet.create(SHARDS)
    right_partitioner = (
        HashPartitioner(SHARDS, key_index=1) if repartition else None
    )
    orders, lineitems = make_join_inputs(
        LEFT, RIGHT, shard_set, right_partitioner=right_partitioner
    )
    budget = MemoryBudget.fraction_of(orders, FRACTION)
    with Session(shard_set, budget) as session:
        result = session.query(build_query(orders, lineitems))
    title = "repartition exchange" if repartition else "partition-wise"
    print(f"=== {SHARDS} shards ({title}) ===")
    print(result.explain())
    print(
        f"-> {len(result.records)} records, critical path "
        f"{result.simulated_seconds * 1e3:.2f} simulated ms, "
        f"summed {result.io.total_cachelines:.0f} cachelines\n"
    )
    return result


def main() -> None:
    single = run_single_device()
    partition_wise = run_sharded(repartition=False)
    exchanged = run_sharded(repartition=True)

    ordered = [record[0] for record in partition_wise.records]
    assert ordered == sorted(ordered), "sharded merge must be globally ordered"
    assert sorted(partition_wise.records) == sorted(single.records)
    assert sorted(exchanged.records) == sorted(single.records)

    speedup = single.io.total_ns / partition_wise.critical_path_ns
    overhead = (
        exchanged.io.total_cachelines / partition_wise.io.total_cachelines - 1.0
    )
    print(
        f"partition-wise critical path is {speedup:.1f}x faster than the "
        f"single device;\nrepartitioning instead costs "
        f"{overhead:+.0%} extra summed cacheline traffic."
    )


if __name__ == "__main__":
    main()
