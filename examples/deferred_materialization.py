"""The runtime API: deferred collections and materialization rules.

Run with::

    python examples/deferred_materialization.py

The Section 3.1 runtime records an operator's workflow as a control-flow
graph over collections, defers every intermediate by default, and lets a
rule engine decide -- when a collection is actually opened -- whether
writing it once is cheaper than re-deriving it from its ancestors.  This
example drives the segmented Grace join operator of the paper's Figure 4
through that machinery and prints the decisions the rules made, then
contrasts the write volume against an always-materialize Grace join.
"""

from repro import GraceJoin, MemoryBudget, OperatorContext
from repro.bench.harness import make_environment
from repro.runtime.operators import SegmentedGraceJoinOperator
from repro.workloads.generator import make_join_inputs


def main() -> None:
    env = make_environment("pmfs")
    left, right = make_join_inputs(800, 8_000, env.backend)
    print(
        f"inputs: {len(left)} x {len(right)} records on the {env.backend_name} "
        f"backend (lambda = {env.device.write_read_ratio:.0f})\n"
    )

    # --- Rule-driven segmented Grace join (Figure 4 control-flow graph). ---
    context = OperatorContext(env.backend)
    before = env.device.snapshot()
    operator = SegmentedGraceJoinOperator(
        context, left, right, num_partitions=8, materialize_output=False
    )
    output = operator.evaluate()
    runtime_cost = env.device.snapshot() - before

    print(f"runtime-driven join produced {len(output.records)} matches")
    print(f"control-flow graph: {len(context.graph)} API calls recorded")
    materialized = [d for d in context.decisions if d.materialize]
    deferred = [d for d in context.decisions if not d.materialize]
    print(
        f"rule decisions: {len(materialized)} materializations, "
        f"{len(deferred)} deferrals"
    )
    for decision in context.decisions[:6]:
        verdict = "materialize" if decision.materialize else "defer"
        print(f"  [{decision.rule:>17s}] {verdict:11s} {decision.collection.name}")
    if len(context.decisions) > 6:
        print(f"  ... {len(context.decisions) - 6} more decisions")
    print(
        f"I/O: {runtime_cost.cacheline_writes:.0f} cacheline writes, "
        f"{runtime_cost.cacheline_reads:.0f} reads, "
        f"{runtime_cost.total_ns / 1e6:.2f} ms simulated\n"
    )

    # --- The always-materialize baseline for comparison. ---
    budget = MemoryBudget.fraction_of(left, 0.1)
    before = env.device.snapshot()
    grace = GraceJoin(env.backend, budget, materialize_output=False).join(left, right)
    grace_cost = env.device.snapshot() - before
    print(
        f"static Grace join: {grace.matches} matches, "
        f"{grace_cost.cacheline_writes:.0f} cacheline writes, "
        f"{grace_cost.total_ns / 1e6:.2f} ms simulated"
    )

    savings = 1.0 - runtime_cost.cacheline_writes / max(grace_cost.cacheline_writes, 1)
    print(
        f"\nThe rule-driven operator wrote {savings:.0%} fewer cachelines by "
        "deferring partitions that were cheaper to rebuild than to persist."
    )


if __name__ == "__main__":
    main()
