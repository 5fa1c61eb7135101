"""Command-line interface for regenerating the paper's experiments.

Usage::

    python -m repro list
    python -m repro figure 5 --records 3000
    python -m repro figure 7 --left 800 --right 8000 --fractions 0.02 0.08 0.15
    python -m repro table 1
    python -m repro query join-sort --write-ns 300
    python -m repro query join --shards 4
    python -m repro workload --policy queue --concurrency 3

Every ``figure``/``table`` subcommand prints the series/rows the
corresponding figure plots, from its declaration in
:mod:`repro.bench.figures`, which ``benchmarks/bench_figures.py`` runs
too.  The ``query`` subcommand runs canned
Wisconsin-workload queries through the cost-based planner and executor
(:mod:`repro.query`) and prints the plan with estimated vs. actual I/O
per node.  The ``workload`` subcommand submits a canned mix of
single-device and sharded queries through the concurrent workload API
(:mod:`repro.workload_mgmt`) under a budget that admits only a few at a
time, and prints the admission/timing report plus the session's
cost-model calibration table.  The CLI exists so experiments can be
re-run (and redirected to files) without pytest.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import FIGURES, TABLES
from repro.exceptions import ConfigurationError
from repro.query import Query
from repro.session import Session
from repro.shard import ShardSet
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import (
    make_join_inputs,
    make_sharded_join_inputs,
    make_sharded_sort_input,
    make_sort_input,
)


# --------------------------------------------------------------------- #
# Canned planner/executor queries over the Wisconsin workload.
# --------------------------------------------------------------------- #
class _Relations:
    """Builds the canned inputs: plain collections on a one-shard set,
    sharded collections otherwise."""

    def __init__(self, shard_set):
        self.shard_set = shard_set
        self.sharded = shard_set.num_shards > 1

    def sort_input(self, num_records):
        if self.sharded:
            return make_sharded_sort_input(num_records, self.shard_set, name="T")
        return make_sort_input(num_records, self.shard_set.backends[0], name="T")

    def join_inputs(self, left_records, right_records):
        if self.sharded:
            return make_sharded_join_inputs(
                left_records, right_records, self.shard_set
            )
        return make_join_inputs(
            left_records, right_records, self.shard_set.backends[0]
        )


def _query_sort(args, relations):
    relation = relations.sort_input(args.records)
    return Query.scan(relation).order_by(), relation


def _query_filter_sort(args, relations):
    relation = relations.sort_input(args.records)
    bound = args.records // 2
    query = (
        Query.scan(relation)
        .filter(lambda record: record[0] < bound, selectivity=0.5)
        .order_by()
    )
    return query, relation


def _query_join(args, relations):
    left, right = relations.join_inputs(args.left, args.right)
    return Query.scan(left).join(Query.scan(right)), left


def _query_join_sort(args, relations):
    left, right = relations.join_inputs(args.left, args.right)
    bound = args.left // 2
    query = (
        Query.scan(left)
        .filter(lambda record: record[0] < bound, selectivity=0.5)
        .join(Query.scan(right))
        .order_by()
    )
    return query, left


def _query_aggregate(args, relations):
    relation = relations.sort_input(args.records)
    query = Query.scan(relation).group_by(
        group_index=1,
        aggregates={"count": 1, "sum": 0, "max": 0},
        estimated_groups=max(1, args.records // 2),
    )
    return query, relation


QUERIES = {
    "sort": ("ORDER BY key over T", _query_sort),
    "filter-sort": ("Filter half of T, then ORDER BY key", _query_filter_sort),
    "join": ("T JOIN V on the key", _query_join),
    "join-sort": (
        "Filter T, join with V, ORDER BY key",
        _query_join_sort,
    ),
    "aggregate": (
        "GROUP BY attribute 1 with count/sum/max",
        _query_aggregate,
    ),
}


def _run_query(args) -> str:
    _, builder = QUERIES[args.name]
    if args.shards < 1:
        raise SystemExit(f"--shards must be at least 1, got {args.shards}")
    shard_set = ShardSet.create(
        args.shards, backend_name=args.backend, write_ns=args.write_ns
    )
    query, budget_base = builder(args, _Relations(shard_set))
    budget = MemoryBudget.fraction_of(budget_base, args.fraction)
    session = Session(
        shard_set,
        budget,
        materialize_result=args.materialize,
        boundary_policy=args.boundaries,
    )
    try:
        result = session.query(query)
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    sharded = args.shards > 1
    scope = " (all shards)" if sharded else ""
    lines = [
        result.explain(),
        "",
        f"output records    : {len(result.records)}",
        f"simulated time    : {result.simulated_seconds * 1e3:.3f} ms"
        + (" (critical path)" if sharded else ""),
    ]
    if sharded:
        lines.append(
            f"summed device time: {result.summed_seconds * 1e3:.3f} ms"
        )
    lines += [
        f"cacheline reads   : {result.io.cacheline_reads:.0f}{scope}",
        f"cacheline writes  : {result.io.cacheline_writes:.0f}{scope}",
    ]
    preview = result.records[: args.rows]
    if preview:
        lines.append(f"first {len(preview)} records:")
        lines.extend(f"  {record}" for record in preview)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Canned concurrent workload through the admission-controlled Session.
# --------------------------------------------------------------------- #
def _run_workload(args) -> str:
    if args.shards < 2:
        raise SystemExit("--shards must be at least 2 for a mixed workload")
    if args.concurrency < 1:
        raise SystemExit("--concurrency must be at least 1")
    shard_set = ShardSet.create(
        args.shards, backend_name=args.backend, write_ns=args.write_ns
    )
    sort_input = make_sharded_sort_input(args.records, shard_set, name="T")
    left, right = make_sharded_join_inputs(
        max(args.records // 4, 8), args.records, shard_set
    )
    plains = []
    for index in range(args.shards):
        plain = PersistentCollection(
            name=f"P{index}",
            backend=shard_set.backends[index],
            schema=WISCONSIN_SCHEMA,
        )
        plain.extend(
            WISCONSIN_SCHEMA.make_record(key)
            for key in range(args.records // 2)
        )
        plain.seal()
        plains.append(plain)
    half = args.records // 2
    items = [
        {"query": Query.scan(sort_input).order_by(), "tag": "shard-sort"},
        {"query": Query.scan(left).join(Query.scan(right)), "tag": "shard-join"},
        {
            "query": Query.scan(sort_input).group_by(
                1, {"count": 1, "sum": 0}, estimated_groups=half
            ),
            "tag": "shard-agg",
        },
        {
            "query": Query.scan(sort_input)
            .filter(lambda r, b=half: r[0] < b, selectivity=0.5)
            .order_by(),
            "tag": "shard-filter-sort",
        },
    ]
    for index, plain in enumerate(plains):
        bound = len(plain) // 2
        items.append(
            {
                "query": Query.scan(plain).filter(
                    lambda r, b=bound: r[0] < b, selectivity=0.5
                ),
                "tag": f"plain{index}-filter",
            }
        )
        items.append(
            {
                "query": Query.scan(plain).group_by(
                    1, {"count": 1}, estimated_groups=bound
                ),
                "tag": f"plain{index}-agg",
            }
        )
    # A budget that admits ``--concurrency`` equal per-query requests.
    budget_bytes = args.concurrency * max(
        4 * 1024, (sort_input.nbytes // args.shards)
    )
    share_bytes = budget_bytes // args.concurrency
    for item in items:
        item["memory_bytes"] = share_bytes
    with Session(shard_set, MemoryBudget(budget_bytes)) as session:
        report = session.run_workload(items, policy=args.policy)
        lines = [
            f"{len(items)} queries over {args.shards} shards, budget "
            f"{budget_bytes} B, per-query request {share_bytes} B "
            f"(admits {args.concurrency} at a time), policy={args.policy}",
            "",
            report.explain(),
            "",
            session.calibration_report(),
        ]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'Write-limited sorts and "
        "joins for persistent memory' (VLDB 2014).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the reproducible figures and tables")

    figure = subparsers.add_parser("figure", help="regenerate one figure")
    figure.add_argument("number", type=int, choices=sorted(FIGURES))
    _add_workload_options(figure)

    table = subparsers.add_parser("table", help="regenerate one table")
    table.add_argument("number", type=int, choices=sorted(TABLES))
    table.add_argument("--partitions", type=int, default=8)
    table.add_argument("--output", type=str, default=None)

    query = subparsers.add_parser(
        "query", help="run a canned query through the cost-based planner"
    )
    query.add_argument("name", choices=sorted(QUERIES))
    query.add_argument(
        "--records", type=int, default=2_000, help="sort/aggregate input records"
    )
    query.add_argument("--left", type=int, default=600)
    query.add_argument("--right", type=int, default=6_000)
    query.add_argument(
        "--fraction",
        type=float,
        default=0.08,
        help="DRAM budget as a fraction of the (left) input",
    )
    query.add_argument(
        "--backend",
        choices=("blocked_memory", "pmfs", "ramdisk", "dynamic_array"),
        default="blocked_memory",
    )
    query.add_argument(
        "--write-ns",
        type=float,
        default=150.0,
        help="device write latency (reads are 10 ns; sets lambda)",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the inputs across N simulated devices and run the "
        "plan fragments concurrently (1 = single-device execution)",
    )
    query.add_argument(
        "--materialize",
        action="store_true",
        help="write the final output to the persistent device",
    )
    query.add_argument(
        "--boundaries",
        choices=("cost", "materialize", "pipeline", "defer"),
        default="cost",
        help="operator-boundary placement: price each edge (cost, the "
        "default) or force every intermediate to materialize, pipeline in "
        "DRAM, or defer through the Section 3.1 runtime",
    )
    query.add_argument(
        "--rows", type=int, default=5, help="output records to preview"
    )
    query.add_argument("--output", type=str, default=None)

    workload = subparsers.add_parser(
        "workload",
        help="run a canned concurrent workload through admission control",
    )
    workload.add_argument(
        "--policy",
        choices=("queue", "shed", "degrade"),
        default="queue",
        help="what happens to queries the bufferpool cannot admit",
    )
    workload.add_argument(
        "--concurrency",
        type=int,
        default=3,
        help="how many equal per-query memory requests fit the budget",
    )
    workload.add_argument(
        "--shards", type=int, default=2, help="simulated devices (>= 2)"
    )
    workload.add_argument(
        "--records", type=int, default=1_200, help="sharded input records"
    )
    workload.add_argument(
        "--backend",
        choices=("blocked_memory", "pmfs", "ramdisk", "dynamic_array"),
        default="blocked_memory",
    )
    workload.add_argument(
        "--write-ns",
        type=float,
        default=150.0,
        help="device write latency (reads are 10 ns; sets lambda)",
    )
    workload.add_argument("--output", type=str, default=None)

    return parser


def _add_workload_options(subparser) -> None:
    subparser.add_argument(
        "--records", type=int, default=2_000, help="sort input size in records"
    )
    subparser.add_argument(
        "--left", type=int, default=600, help="left join input size in records"
    )
    subparser.add_argument(
        "--right", type=int, default=6_000, help="right join input size in records"
    )
    subparser.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[0.02, 0.05, 0.08, 0.11, 0.15],
        help="memory sizes as fractions of the (left) input",
    )
    subparser.add_argument(
        "--backend",
        choices=("blocked_memory", "pmfs", "ramdisk", "dynamic_array"),
        default="blocked_memory",
    )
    subparser.add_argument("--grid", type=int, default=21, help="Figure 2 grid size")
    subparser.add_argument(
        "--output", type=str, default=None, help="write the report to a file"
    )


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        lines = ["Reproducible experiments:"]
        for number, exhibit in sorted(FIGURES.items()):
            lines.append(f"  figure {number:<2d} {exhibit.description}")
        for number, exhibit in sorted(TABLES.items()):
            lines.append(f"  table  {number:<2d} {exhibit.description}")
        lines.append("Planned queries (cost-based operator selection):")
        for name, (description, _) in sorted(QUERIES.items()):
            lines.append(f"  query  {name:<12s} {description}")
        lines.append(
            "Concurrent workloads (admission control over the session "
            "bufferpool):"
        )
        lines.append(
            "  workload            mixed single-device + sharded queries; "
            "--policy queue|shed|degrade"
        )
        print("\n".join(lines))
        return 0
    if args.command == "query":
        _emit(_run_query(args), args.output)
        return 0
    if args.command == "workload":
        _emit(_run_workload(args), args.output)
        return 0
    if args.command in ("figure", "table"):
        exhibits = FIGURES if args.command == "figure" else TABLES
        exhibit = exhibits[args.number]
        _emit(exhibit.render(exhibit.rows(args)), args.output)
        return 0
    return 1  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
