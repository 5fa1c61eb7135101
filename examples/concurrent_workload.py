"""Concurrent workloads: admission control over the shared bufferpool.

Run with::

    python examples/concurrent_workload.py

A :class:`repro.Session` admits every submitted query before it runs:
the admission controller carves the query a child ``Bufferpool.share()``
sized from the planner's memory estimate, so concurrently running
queries can never jointly exceed the session budget.  This example
submits six mixed queries -- sharded sort/join/aggregation over a
2-shard ``ShardSet`` plus plain filters on the individual shard
backends -- under a budget that admits only two at a time, and contrasts
the three admission policies:

* ``queue``  -- the overflow waits; everything completes;
* ``shed``   -- the overflow is rejected immediately;
* ``degrade``-- the overflow is replanned under half (then quarter, ...)
  budgets until it fits, trading operator choice for admission.

The workload report shows per-query queue-wait vs. run simulated time
and the workload critical path (the busiest device over the run).
"""

from repro import MemoryBudget, Query, Session, ShardSet
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import (
    load_collection,
    make_join_inputs,
    make_sort_input,
)

RECORDS = 600
BUDGET_BYTES = 24_000  # two 12 KB per-query requests fill it


def main() -> None:
    shard_set = ShardSet.create(2)
    sort_input = make_sort_input(RECORDS, shard_set, name="T")
    left, right = make_join_inputs(RECORDS // 4, RECORDS, shard_set)
    plain0, plain1 = (
        load_collection(
            (WISCONSIN_SCHEMA.make_record(key) for key in range(RECORDS // 2)),
            backend,
            f"P{index}",
        )
        for index, backend in enumerate(shard_set.backends)
    )
    items = [
        {"query": Query.scan(sort_input).order_by(), "tag": "shard-sort"},
        {"query": Query.scan(left).join(Query.scan(right)), "tag": "shard-join"},
        {
            "query": Query.scan(sort_input).group_by(
                1, {"count": 1}, estimated_groups=RECORDS // 2
            ),
            "tag": "shard-agg",
        },
        {
            "query": Query.scan(plain0).filter(
                lambda r: r[0] < RECORDS // 4, selectivity=0.5
            ),
            "tag": "plain0-filter",
        },
        {
            "query": Query.scan(plain1).filter(
                lambda r: r[0] >= RECORDS // 4, selectivity=0.5
            ),
            "tag": "plain1-filter",
        },
        {
            "query": Query.scan(plain1).group_by(
                1, {"count": 1}, estimated_groups=RECORDS // 4
            ),
            "tag": "plain1-agg",
        },
    ]
    # Every query requests half the budget: two admitted at a time.
    items = [dict(item, memory_bytes=BUDGET_BYTES // 2) for item in items]

    for policy in ("queue", "shed", "degrade"):
        with Session(shard_set, MemoryBudget(BUDGET_BYTES)) as session:
            report = session.run_workload(items, policy=policy)
            print(f"=== policy: {policy} ===")
            print(report.explain())
            print()
            if policy == "queue":
                assert len(report.completed) == len(items)
                assert report.critical_path_ns <= report.serial_sum_ns
                print(session.calibration_report())
                print()
            elif policy == "shed":
                assert report.rejected, "shed must reject the overflow"
            else:
                assert any(handle.degraded for handle in report.handles), (
                    "degrade must admit some queries under a smaller budget"
                )


if __name__ == "__main__":
    main()
