"""Sharded scaling sweep: shard count x lambda on the Wisconsin join.

For every device asymmetry ``lambda``, the same Wisconsin join workload
(1:10 cardinality ratio, fanout 10) runs at increasing shard counts.
Two variants are swept:

* **co-partitioned** -- both inputs hash on the join key, so every join
  is partition-wise and no data moves between shards;
* **repartitioned** -- the probe input is partitioned on a non-key
  attribute, forcing the planner to insert a repartition exchange whose
  I/O is accounted separately and reported per row.

The interesting outputs, asserted at 4 shards on the co-partitioned
variant:

* the *critical path* (per step, the slowest shard's cacheline traffic,
  summed over steps) drops at least 2x vs. the single-shard run -- the
  simulated-latency win of parallel execution; and
* the *summed* per-shard cacheline traffic stays within 10% of the
  single-device total -- sharding parallelizes the work, it does not
  inflate it (any inflation is the reported repartition overhead).

Runs standalone (``python benchmarks/bench_sharded_scaling.py
[--smoke]``) or under pytest-benchmark like the figure benchmarks.
"""

from __future__ import annotations

import argparse
import sys

from repro.query import Query
from repro.session import Session
from repro.shard import HashPartitioner, ShardSet
from repro.shard.planner import ExchangeStep
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_join_inputs

#: lambda in {6, 15, 60} with the paper's 10 ns reads.
WRITE_LATENCIES = (60.0, 150.0, 600.0)
SHARD_COUNTS = (1, 2, 4, 8)
LEFT_RECORDS = 600
RIGHT_RECORDS = 6_000
MEMORY_FRACTION = 0.15

SMOKE_WRITE_LATENCIES = (150.0,)
SMOKE_SHARD_COUNTS = (1, 4)
SMOKE_LEFT_RECORDS = 240
SMOKE_RIGHT_RECORDS = 2_400

#: Acceptance thresholds at 4 shards vs. 1 shard (co-partitioned).
MIN_CRITICAL_PATH_SPEEDUP_AT_4 = 2.0
MAX_SUMMED_IO_DRIFT_AT_4 = 0.10


def run_one(
    shards: int,
    write_ns: float,
    left_records: int,
    right_records: int,
    fraction: float,
    repartition: bool,
) -> dict:
    """Run the Wisconsin join at one grid point; flatten into a row."""
    shard_set = ShardSet.create(shards, write_ns=write_ns)
    right_partitioner = (
        HashPartitioner(shards, key_index=1) if repartition else None
    )
    left, right = make_join_inputs(
        left_records, right_records, shard_set, right_partitioner=right_partitioner
    )
    budget = MemoryBudget.fraction_of(left, fraction)
    result = Session(shard_set, budget).query(Query.scan(left).join(Query.scan(right)))
    exchange_cachelines = sum(
        sum(io.total_cachelines for io in result.step_io[step.index])
        for step in result.plan.steps
        if isinstance(step, ExchangeStep)
    )
    chosen = sorted(
        {fragment.root.operator for fragment in result.plan.final_step.fragments}
    )
    return {
        "variant": "repartitioned" if repartition else "co-partitioned",
        "lambda": shard_set.write_read_ratio,
        "shards": shards,
        "operator": "/".join(chosen),
        "critical_cachelines": result.critical_path_cachelines,
        "summed_cachelines": result.io.total_cachelines,
        "exchange_cachelines": exchange_cachelines,
        "exchange_fraction": (
            exchange_cachelines / result.io.total_cachelines
            if result.io.total_cachelines
            else 0.0
        ),
        "critical_ms": result.critical_path_ns / 1e6,
        "output_records": len(result.records),
    }


def sharded_scaling_sweep(
    shard_counts=SHARD_COUNTS,
    write_latencies=WRITE_LATENCIES,
    left_records=LEFT_RECORDS,
    right_records=RIGHT_RECORDS,
    fraction=MEMORY_FRACTION,
    variants=(False, True),
) -> list[dict]:
    """The full grid; rows carry speedup/drift relative to 1 shard."""
    rows = []
    for repartition in variants:
        for write_ns in write_latencies:
            # Speedup/drift are relative to the grid's first (smallest)
            # shard count -- 1 in the default and smoke grids.
            baseline = None
            for shards in shard_counts:
                row = run_one(
                    shards,
                    write_ns,
                    left_records,
                    right_records,
                    fraction,
                    repartition,
                )
                if baseline is None:
                    baseline = row
                row["critical_speedup"] = (
                    baseline["critical_cachelines"] / row["critical_cachelines"]
                    if row["critical_cachelines"]
                    else float("inf")
                )
                row["summed_drift"] = (
                    row["summed_cachelines"] / baseline["summed_cachelines"] - 1.0
                    if baseline["summed_cachelines"]
                    else 0.0
                )
                rows.append(row)
    return rows


def check_acceptance(rows: list[dict]) -> list[str]:
    """The assertions the sweep must satisfy; returns failure messages."""
    failures = []
    for row in rows:
        if row["variant"] != "co-partitioned" or row["shards"] != 4:
            continue
        if row["critical_speedup"] < MIN_CRITICAL_PATH_SPEEDUP_AT_4:
            failures.append(
                f"lambda={row['lambda']:.0f}: critical-path speedup "
                f"{row['critical_speedup']:.2f}x at 4 shards is below "
                f"{MIN_CRITICAL_PATH_SPEEDUP_AT_4:.1f}x"
            )
        if abs(row["summed_drift"]) > MAX_SUMMED_IO_DRIFT_AT_4:
            failures.append(
                f"lambda={row['lambda']:.0f}: summed per-shard I/O drifts "
                f"{row['summed_drift']:+.1%} from the single-device total "
                f"(limit {MAX_SUMMED_IO_DRIFT_AT_4:.0%})"
            )
    return failures


def format_rows(rows: list[dict]) -> str:
    from repro.bench.reporting import format_table

    return format_table(
        rows,
        [
            "variant",
            "lambda",
            "shards",
            "operator",
            "critical_cachelines",
            "critical_speedup",
            "summed_cachelines",
            "summed_drift",
            "exchange_fraction",
        ],
        title="Sharded scaling - Wisconsin join, shard count x lambda",
    )


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (like the figure benchmarks).
# --------------------------------------------------------------------- #
def test_sharded_scaling(benchmark, report):
    from conftest import attach_summary, run_experiment

    rows = run_experiment(benchmark, sharded_scaling_sweep)
    report(format_rows(rows))
    failures = check_acceptance(rows)
    best = max(
        row["critical_speedup"]
        for row in rows
        if row["variant"] == "co-partitioned" and row["shards"] == 4
    )
    attach_summary(benchmark, grid_points=len(rows), best_speedup_at_4=best)
    assert not failures, "; ".join(failures)


# --------------------------------------------------------------------- #
# Standalone script entry point (used by CI's sharded smoke job).
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded scaling sweep over the Wisconsin join workload"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast grid (used by CI to exercise the sharded path)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = sharded_scaling_sweep(
            shard_counts=SMOKE_SHARD_COUNTS,
            write_latencies=SMOKE_WRITE_LATENCIES,
            left_records=SMOKE_LEFT_RECORDS,
            right_records=SMOKE_RIGHT_RECORDS,
        )
    else:
        rows = sharded_scaling_sweep()
    print(format_rows(rows))
    failures = check_acceptance(rows)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    speedups = [
        row["critical_speedup"]
        for row in rows
        if row["variant"] == "co-partitioned" and row["shards"] == 4
    ]
    print(
        f"\nOK: critical-path speedup at 4 shards >= "
        f"{min(speedups):.2f}x on every lambda; summed I/O within "
        f"{MAX_SUMMED_IO_DRIFT_AT_4:.0%} of the single-device total."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
