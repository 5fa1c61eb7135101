"""The Session facade and per-edge boundary decisions.

Run with::

    python examples/session_pipeline.py

A :class:`repro.Session` is the front door to the query layer: it owns
the backend, the DRAM budget and the shared bufferpool, and routes
queries to the right executor.  This example plans one Wisconsin
query -- filter the small relation, join it with the large one, group
the result -- and shows how the planner places *boundaries* between
operators:

* the filter edge is **deferred**: its output is never produced; the
  join re-derives the filtered stream through the Section 3.1 runtime's
  control-flow graph, saving the settlement write entirely;
* edges whose intermediates fit the DRAM budget are **pipelined**;
* everything else is **materialized** on the persistent device, exactly
  as the Section 2 cost models assume.

``explain()`` annotates every edge with the decision and the estimated
vs. actual lambda-weighted writes it saved, plus per-node elapsed
simulated nanoseconds, so the deferred-materialization win is visible
next to the classical plan.
"""

from repro import MemoryBudget, Query, Session
from repro.bench.harness import make_environment
from repro.workloads.generator import make_join_inputs

LEFT, RIGHT = 400, 4_000
FRACTION = 0.10


def build_query(orders, lineitems):
    return (
        Query.scan(orders)
        .filter(lambda record: record[0] < LEFT // 2, selectivity=0.5)
        .join(Query.scan(lineitems))
        .group_by(1, {"count": 1, "sum": 0}, estimated_groups=LEFT)
    )


def main() -> None:
    env = make_environment("blocked_memory", write_ns=150.0)
    orders, lineitems = make_join_inputs(LEFT, RIGHT, env.backend)
    budget = MemoryBudget.fraction_of(orders, FRACTION)

    print(
        f"device: read 10 ns, write 150 ns "
        f"(lambda = {env.device.write_read_ratio:.0f}), "
        f"budget = {budget.buffers:.0f} cachelines\n"
    )

    with Session(env.backend, budget) as session:
        # Cost-priced boundaries (the default policy).
        costed = session.query(build_query(orders, lineitems))
        print("=== cost-priced boundaries ===")
        print(costed.explain())

        deferred_edges = [
            execution
            for execution in costed.executions.values()
            if execution.details.get("deferred")
        ]
        assert deferred_edges, "the filter edge should defer at lambda = 15"
        (context,) = costed.runtime_contexts
        for execution in deferred_edges:
            output = execution.output
            print(
                f"\ndeferred intermediate {output.name!r}: re-derived "
                f"{context.reconstruction_count(output)}x through the runtime "
                f"graph, {execution.records} records, zero settlement writes"
            )

        # The legacy behavior for comparison: settle every intermediate.
        materialized = session.query(
            build_query(orders, lineitems), boundary_policy="materialize"
        )
        print("\n=== materialize-everything (legacy) ===")
        print(materialized.explain())

    assert costed.records == materialized.records
    lam = env.device.write_read_ratio
    saved = (
        materialized.io.cacheline_writes - costed.io.cacheline_writes
    ) * lam
    print(
        f"\nidentical {len(costed.records)} records; cost-priced boundaries "
        f"avoided {saved:.0f} weighted written cachelines "
        f"({materialized.io.cacheline_writes:.0f}w -> "
        f"{costed.io.cacheline_writes:.0f}w at lambda {lam:.0f})."
    )


if __name__ == "__main__":
    main()
