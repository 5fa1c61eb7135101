"""Ablation: rule-driven deferred materialization versus static knobs.

The Section 3.1 runtime decides at run time which partitions of a
segmented Grace join to materialize; this ablation compares that
rule-driven operator against the statically tuned SegJ (several write
intensities) and plain Grace join.
"""

from repro.bench.harness import make_environment, run_join
from repro.bench.reporting import format_table
from repro.joins import GraceJoin, SegmentedGraceJoin
from repro.runtime.context import OperatorContext
from repro.runtime.operators import SegmentedGraceJoinOperator
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_join_inputs

from conftest import attach_summary, run_experiment

LEFT_RECORDS = 500
RIGHT_RECORDS = 5_000
MEMORY_FRACTION = 0.08


def compare_runtime_and_static():
    env = make_environment()
    left, right = make_join_inputs(LEFT_RECORDS, RIGHT_RECORDS, env.backend)
    budget = MemoryBudget.fraction_of(left, MEMORY_FRACTION)
    # Every variant pipelines its output, as the runtime operator does.
    rows = [
        run_join(
            GraceJoin(env.backend, budget, materialize_output=False),
            left,
            right,
            label="GJ",
        )
    ]
    for intensity in (0.2, 0.5, 0.8):
        rows.append(
            run_join(
                SegmentedGraceJoin(
                    env.backend,
                    budget,
                    write_intensity=intensity,
                    materialize_output=False,
                ),
                left,
                right,
                label=f"SegJ, {int(intensity * 100)}% (static)",
            )
        )

    num_partitions = max(2, len(left) // budget.record_capacity())
    before = env.device.snapshot()
    context = OperatorContext(env.backend)
    operator = SegmentedGraceJoinOperator(
        context, left, right, num_partitions=num_partitions, materialize_output=False
    )
    output = operator.evaluate()
    delta = env.device.snapshot() - before
    rows.append(
        {
            "algorithm": "SGJ (runtime rules)",
            "backend": env.backend.name,
            "memory_fraction": MEMORY_FRACTION,
            "simulated_seconds": delta.total_ns / 1e9,
            "cacheline_reads": delta.cacheline_reads,
            "cacheline_writes": delta.cacheline_writes,
            "matches": len(output.records),
            "partitions": num_partitions,
            "materialization_decisions": [
                decision.rule for decision in context.decisions if decision.materialize
            ],
        }
    )
    return rows


def test_ablation_runtime_rules(benchmark, report):
    rows = run_experiment(benchmark, compare_runtime_and_static)
    report(
        format_table(
            rows,
            [
                "algorithm",
                "simulated_seconds",
                "cacheline_writes",
                "cacheline_reads",
                "matches",
            ],
            title="Ablation - runtime materialization rules vs static knobs "
            "(segmented Grace join)",
        )
    )
    runtime_row = next(row for row in rows if row["algorithm"].startswith("SGJ"))
    grace_row = next(row for row in rows if row["algorithm"] == "GJ")
    attach_summary(benchmark, runtime_writes=runtime_row["cacheline_writes"])

    # All variants produce the same number of matches, and the rule-driven
    # operator never writes more than plain Grace join.
    assert len({row["matches"] for row in rows}) == 1
    assert runtime_row["cacheline_writes"] <= grace_row["cacheline_writes"] * 1.001
