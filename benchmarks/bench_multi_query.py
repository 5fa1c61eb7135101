"""Multi-query workload benchmark: admission control over one ShardSet.

Eight mixed queries -- filters, joins and group-bys, some single-device
(plain collections living on individual shard backends) and some sharded
-- are submitted as one workload against a session budget that admits at
most **three** queries at a time (every query requests an equal third of
the budget, so a fourth share can never be carved while three run).

Acceptance (asserted in both the script and pytest modes):

* under the ``queue`` policy every query completes, its records are
  identical to running the same query serially under the same per-query
  budget, and no :class:`~repro.exceptions.BufferpoolExhaustedError`
  escapes the workload machinery;
* under the ``shed`` policy the overflow (five queries) is rejected
  deterministically -- two runs shed exactly the same queries;
* the workload report carries a positive queue-wait for the queries that
  had to wait, and the workload critical path (busiest device over the
  run) never exceeds the serial sum of per-query run times;
* after the ``queue`` and after the ``shed`` workloads every shard
  device's ``allocated_bytes`` is back at its post-load value: every query
  drops the stores it created.

Runs standalone (``python benchmarks/bench_multi_query.py [--smoke]``)
or under pytest-benchmark like the figure benchmarks.
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import BufferpoolExhaustedError
from repro.query import Query
from repro.session import Session
from repro.shard import ShardSet
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workload_mgmt import QueryStatus
from repro.workloads.generator import (
    load_collection,
    make_join_inputs,
    make_sort_input,
)

#: Session budget (divisible by 3: each query requests exactly a third,
#: so three shares fill the pool and a fourth cannot be carved).
BUDGET_BYTES = 60_000
MAX_CONCURRENT = 3

SORT_RECORDS = 1_200
JOIN_LEFT, JOIN_RIGHT = 300, 3_000
PLAIN_RECORDS = 800

SMOKE_BUDGET_BYTES = 30_000
SMOKE_SORT_RECORDS = 400
SMOKE_JOIN_LEFT, SMOKE_JOIN_RIGHT = 100, 1_000
SMOKE_PLAIN_RECORDS = 300


def build_setup(sort_records, join_left, join_right, plain_records):
    """One ShardSet, sharded inputs, and plain per-shard collections."""
    shard_set = ShardSet.create(2)
    sort_input = make_sort_input(sort_records, shard_set, name="T")
    left, right = make_join_inputs(join_left, join_right, shard_set)
    plains = [
        load_collection(
            (WISCONSIN_SCHEMA.make_record(key) for key in range(count)),
            shard_set.backends[shard],
            name,
        )
        for shard, name, count in (
            (0, "P0", plain_records),
            (1, "P1", plain_records),
            (1, "P1b", plain_records // 4),
        )
    ]
    return (shard_set, sort_input, left, right, *plains)


def build_queries(sort_input, left, right, plain0, plain1, plain1b):
    """Eight mixed queries: filter/join/group-by, single-device + sharded."""
    half_sort = len(sort_input) // 2
    half_plain = len(plain0) // 2
    return [
        {"query": Query.scan(sort_input).order_by(), "tag": "shard-sort"},
        {
            "query": Query.scan(left).join(Query.scan(right)),
            "tag": "shard-join",
        },
        {
            "query": Query.scan(sort_input).group_by(
                1, {"count": 1, "sum": 0}, estimated_groups=half_sort
            ),
            "tag": "shard-agg",
        },
        {
            "query": Query.scan(sort_input)
            .filter(lambda r, b=half_sort: r[0] < b, selectivity=0.5)
            .order_by(),
            "tag": "shard-filter-sort",
        },
        {
            "query": Query.scan(plain0).filter(
                lambda r, b=half_plain: r[0] < b, selectivity=0.5
            ),
            "tag": "plain0-filter",
        },
        {
            "query": Query.scan(plain1).group_by(
                1, {"count": 1}, estimated_groups=half_plain
            ),
            "tag": "plain1-agg",
        },
        {
            "query": Query.scan(plain1b).join(Query.scan(plain1)),
            "tag": "plain1-join",
        },
        {
            "query": Query.scan(plain1)
            .filter(lambda r, b=half_plain: r[0] >= b, selectivity=0.5)
            .order_by(),
            "tag": "plain1-filter-sort",
        },
    ]


def run_suite(smoke: bool = False) -> dict:
    if smoke:
        budget_bytes = SMOKE_BUDGET_BYTES
        setup = build_setup(
            SMOKE_SORT_RECORDS,
            SMOKE_JOIN_LEFT,
            SMOKE_JOIN_RIGHT,
            SMOKE_PLAIN_RECORDS,
        )
    else:
        budget_bytes = BUDGET_BYTES
        setup = build_setup(SORT_RECORDS, JOIN_LEFT, JOIN_RIGHT, PLAIN_RECORDS)
    shard_set, *inputs = setup
    loaded = [device.allocated_bytes for device in shard_set.devices]
    share_bytes = budget_bytes // MAX_CONCURRENT
    queries = [
        dict(item, memory_bytes=share_bytes) for item in build_queries(*inputs)
    ]
    failures: list[str] = []

    def check_allocation(policy: str) -> None:
        allocated = [device.allocated_bytes for device in shard_set.devices]
        if allocated != loaded:
            failures.append(
                f"{policy} workload left device allocation at {allocated} "
                f"bytes, post-load {loaded}"
            )

    # ----------------------------------------------------------------- #
    # Queue policy: everything completes, records match serial runs.
    # ----------------------------------------------------------------- #
    with Session(shard_set, MemoryBudget(budget_bytes)) as session:
        try:
            queued = session.run_workload(queries, policy="queue")
        except BufferpoolExhaustedError as error:  # pragma: no cover
            raise AssertionError(
                f"BufferpoolExhaustedError escaped the queue workload: {error}"
            ) from None
        for handle in queued.handles:
            if handle.status is not QueryStatus.DONE:
                failures.append(
                    f"queue policy left {handle.tag} in {handle.status.value}"
                )
            if isinstance(handle.error, BufferpoolExhaustedError):
                failures.append(
                    f"BufferpoolExhaustedError escaped on {handle.tag}"
                )
        waited = [h for h in queued.handles if h.queue_wait_ns > 0.0]
        if len(waited) < len(queries) - MAX_CONCURRENT:
            failures.append(
                f"only {len(waited)} queries report a positive queue wait; "
                f"expected at least {len(queries) - MAX_CONCURRENT}"
            )
        if queued.critical_path_ns > queued.serial_sum_ns + 1e-6:
            failures.append(
                f"workload critical path {queued.critical_path_ns:.0f} ns "
                f"exceeds the serial sum {queued.serial_sum_ns:.0f} ns"
            )
        # Serial reference: same queries, same per-query budget, one at
        # a time on the same (unchanged) data.
        for item, handle in zip(queries, queued.handles):
            serial = session.submit(
                item["query"], memory_bytes=share_bytes
            ).result()
            if handle.result().records != serial.records:
                failures.append(
                    f"{item['tag']}: concurrent records differ from serial"
                )
        calibration = session.calibration_report()
    check_allocation("queue")

    # ----------------------------------------------------------------- #
    # Shed policy: the overflow is rejected, deterministically.
    # ----------------------------------------------------------------- #
    shed_runs = []
    for _ in range(2):
        with Session(shard_set, MemoryBudget(budget_bytes)) as session:
            shed = session.run_workload(queries, policy="shed")
            shed_runs.append(shed)
        check_allocation("shed")
    for index, shed in enumerate(shed_runs):
        if len(shed.completed) != MAX_CONCURRENT:
            failures.append(
                f"shed run {index}: {len(shed.completed)} completed, "
                f"expected {MAX_CONCURRENT}"
            )
        if len(shed.rejected) != len(queries) - MAX_CONCURRENT:
            failures.append(
                f"shed run {index}: {len(shed.rejected)} rejected, "
                f"expected {len(queries) - MAX_CONCURRENT}"
            )
    first_shed = sorted(handle.tag for handle in shed_runs[0].rejected)
    second_shed = sorted(handle.tag for handle in shed_runs[1].rejected)
    if first_shed != second_shed:
        failures.append(
            f"shed rejections are not deterministic: {first_shed} vs "
            f"{second_shed}"
        )

    return {
        "queued": queued,
        "shed": shed_runs[0],
        "calibration": calibration,
        "failures": failures,
        "budget_bytes": budget_bytes,
        "share_bytes": share_bytes,
    }


def format_report(outcome: dict) -> str:
    queued = outcome["queued"]
    shed = outcome["shed"]
    lines = [
        f"session budget {outcome['budget_bytes']} B, per-query request "
        f"{outcome['share_bytes']} B (admits {MAX_CONCURRENT} at a time)",
        "",
        "queue policy:",
        queued.explain(),
        "",
        "shed policy:",
        shed.explain(),
        "",
        outcome["calibration"],
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (like the figure benchmarks).
# --------------------------------------------------------------------- #
def test_multi_query_workload(benchmark, report):
    from conftest import attach_summary, run_experiment

    outcome = run_experiment(benchmark, run_suite, smoke=True)
    report(format_report(outcome))
    attach_summary(
        benchmark,
        completed=len(outcome["queued"].completed),
        shed=len(outcome["shed"].rejected),
        overlap=outcome["queued"].overlap,
    )
    assert not outcome["failures"], "; ".join(outcome["failures"])


# --------------------------------------------------------------------- #
# Standalone script entry point (used by CI's workload smoke job).
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Concurrent multi-query workload with admission control"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast inputs (used by CI to exercise the workload path)",
    )
    args = parser.parse_args(argv)
    outcome = run_suite(smoke=args.smoke)
    print(format_report(outcome))
    if outcome["failures"]:
        for failure in outcome["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    queued = outcome["queued"]
    print(
        f"\nOK: {len(queued.completed)}/{len(queued.handles)} queries "
        f"completed under queue (overlap {queued.overlap:.2f}x), "
        f"{len(outcome['shed'].rejected)} shed deterministically."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
