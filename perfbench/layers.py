"""Per-layer metrics of a traced run, and the check of predicted interactions.

:func:`layer_report` turns a :class:`~perfbench.tracing.Tracer`'s span
aggregates into the per-layer metrics ``BENCHMARK.json`` declares (each
normalized per traced query, so runs of different length compare) plus
the whole per-span table.  Run as a script over the result files of
traced runs, it names for every layer the workloads where the layer's
share of self time is highest and lowest and checks them against
:data:`PREDICTIONS`::

    python3 perfbench/layers.py perfbench/results/*-t1.json
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

LOWMEM = ("lowmem_sort", "lowmem_join")

#: ``(layer, workload where its self-time share should be highest,
#: workloads where it should be lowest or None, end-to-end metric it
#: moves)``.  A layer matches every span named by it or below it.
PREDICTIONS = (
    ("session.submit", "small_queries", LOWMEM, "small_queries latency_p50_ms, qps"),
    ("query.planner", "small_queries", LOWMEM, "small_queries latency_p50_ms, qps"),
    ("workload_mgmt.workers", "small_queries", LOWMEM, "small_queries latency_p50_ms, qps"),
    ("pmem.device.read", "small_queries", None, "small_queries latency_p50_ms (NLJ per-record reads)"),
    ("sorts", "lowmem_sort", None, "lowmem_sort latency_p50_ms"),
    ("storage.collection.extend", "lowmem_sort", None, "lowmem_sort latency_p50_ms"),
    ("pmem.device.write_bulk", "lowmem_sort", None, "lowmem_sort latency_p50_ms"),
    ("joins", "lowmem_join", None, "lowmem_join latency_p50_ms"),
    ("storage.collection.scan_blocks", "lowmem_join", None, "lowmem_join latency_p50_ms"),
    ("pmem.device.read_bulk", "lowmem_join", None, "lowmem_join latency_p50_ms"),
    ("runtime.context", "lowmem_join", None, "lowmem_join latency_p50_ms"),
    ("workload_mgmt.admission", "concurrent_shards", None, "concurrent_shards qps, latency_tail_ms"),
    ("storage.bufferpool", "concurrent_shards", None, "concurrent_shards qps, latency_tail_ms"),
    ("shard", "concurrent_shards", None, "concurrent_shards qps, latency_tail_ms"),
)


def layer_of(span: str) -> str:
    """The layer a span belongs to: operator and algorithm variants of
    one module fold together, everything else keeps its entry name."""
    parts = span.split(".")
    if parts[0] in ("sorts", "joins", "aggregation"):
        return parts[0]
    if parts[:2] in (["query", "physical"], ["pmem", "backends"]):
        return ".".join(parts[:2])
    return span


def within(span: str, layer: str) -> bool:
    return span == layer or span.startswith(layer + ".")


def _matching(stats, predicate, field: str) -> float:
    """Sum ``field`` (a ``Stat`` attribute or count) over matching spans."""
    return sum(
        getattr(stat, field) if hasattr(stat, field) else stat.counts.get(field, 0)
        for name, stat in stats.items()
        if predicate(name)
    )


def layer_report(tracer, outcomes, *, untraced_qps: float, traced_qps: float) -> dict:
    """Per-layer metrics, per-span table and self-time shares."""
    stats = tracer.merged()
    queries = max(1, len(outcomes))
    returned = sum(o.records for o in outcomes if o.ok)
    total_self = sum(stat.self_ns for stat in stats.values()) or 1

    def per_query_ms(predicate):
        return _matching(stats, predicate, "self_ns") / queries / 1e6

    def per_query(predicate, field):
        return _matching(stats, predicate, field) / queries

    def named(span):
        return lambda name: name == span

    def suffix(prefix, entry):
        return lambda name: name.startswith(prefix) and name.endswith(entry)

    shares: dict[str, float] = {}
    for name, stat in stats.items():
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + stat.self_ns / total_self
    task = stats.get("workload_mgmt.workers.task")
    busy_ns = sum(
        value for key, value in (task.counts.items() if task else ())
        if key.endswith(".busy_ns")
    )
    scanned = _matching(stats, named("storage.collection.scan_blocks"), "records")
    spans, attached = tracer.worker_span_counts()
    metrics = {
        "session.submit.self_ms": per_query_ms(named("session.submit")),
        "query.planner.plan.self_ms": per_query_ms(named("query.planner.plan")),
        "query.planner.qerror_p50": (
            statistics.median(tracer.qerrors) if tracer.qerrors else 1.0
        ),
        "shard.planner.plan.calls": per_query(named("shard.planner.plan"), "calls"),
        "workload_mgmt.admission.try_admit.self_ms": per_query_ms(
            named("workload_mgmt.admission.try_admit")
        ),
        "workload_mgmt.admission.queued": per_query(
            named("workload_mgmt.admission.try_admit"), "queued"
        ),
        "workload_mgmt.workers.task_wait_ms": (
            task.counts.get("wait_ns", 0) / task.calls / 1e6 if task else 0.0
        ),
        "workload_mgmt.workers.busy_ms": busy_ns / queries / 1e6,
        "query.executor.execute.self_ms": per_query_ms(named("query.executor.execute")),
        "shard.executor.execute.calls": per_query(named("shard.executor.execute"), "calls"),
        "query.physical.open_ms": per_query_ms(suffix("query.physical.", ".open")),
        "query.physical.blocks_ms": per_query_ms(suffix("query.physical.", ".blocks")),
        "query.physical.records_out": per_query(
            suffix("query.physical.", ".blocks"), "records"
        ),
        "sorts.runs_generated": per_query(lambda n: n.startswith("sorts."), "runs_generated"),
        "sorts.merge_passes": per_query(lambda n: n.startswith("sorts."), "merge_passes"),
        "joins.matches": per_query(lambda n: n.startswith("joins."), "matches"),
        "aggregation.aggregate.self_ms": per_query_ms(lambda n: n.startswith("aggregation.")),
        "aggregation.spills": per_query(lambda n: n.startswith("aggregation."), "spills"),
        "runtime.context.reconstruct.records": per_query(
            named("runtime.context.reconstruct"), "records"
        ),
        "storage.collection.scan_blocks.self_ms": per_query_ms(
            named("storage.collection.scan_blocks")
        ),
        "storage.collection.scan_blocks.read_amp": (
            scanned / returned if returned else 0.0
        ),
        "storage.collection.extend.self_ms": per_query_ms(
            named("storage.collection.extend")
        ),
        "storage.bufferpool.reserve.self_ms": per_query_ms(named("storage.bufferpool.reserve")),
        "storage.bufferpool.share.self_ms": per_query_ms(named("storage.bufferpool.share")),
        "storage.bufferpool.exhausted": per_query(
            lambda n: n.startswith("storage.bufferpool."), "exhausted"
        ),
        "pmem.device.read.calls": per_query(named("pmem.device.read"), "calls"),
        "pmem.device.write.calls": per_query(named("pmem.device.write"), "calls"),
        "pmem.device.read_bulk.self_ms": per_query_ms(named("pmem.device.read_bulk")),
        "pmem.device.write_bulk.self_ms": per_query_ms(named("pmem.device.write_bulk")),
        "pmem.backends.append_bulk.self_ms": per_query_ms(
            suffix("pmem.backends.", ".append_bulk")
        ),
        "pmem.backends.read_bulk.self_ms": per_query_ms(
            suffix("pmem.backends.", ".read_bulk")
        ),
        # Shares of all traced self time, for layers some workloads skip.
        "sorts.self_share": share_of(shares, "sorts"),
        "joins.self_share": share_of(shares, "joins"),
        "shard.self_share": share_of(shares, "shard"),
        "pmem.device.write_bulk.cachelines": per_query(
            named("pmem.device.write_bulk"), "cachelines"
        ),
        "tracing.self_ms": total_self / queries / 1e6,
        "tracing.overhead": untraced_qps / traced_qps if traced_qps else 0.0,
        "tracing.worker_spans_attached": attached / spans if spans else 0.0,
    }
    table = {
        name: {
            "calls": stat.calls,
            "total_ms": stat.total_ns / 1e6,
            "self_ms": stat.self_ns / 1e6,
            "self_share": stat.self_ns / total_self,
            **{
                key.replace("_ns", "_ms"): value / 1e6 if key.endswith("_ns") else value
                for key, value in sorted(stat.counts.items())
            },
        }
        for name, stat in sorted(stats.items())
    }
    admission = stats.get("workload_mgmt.admission.try_admit")
    return {
        "metrics": metrics,
        "queries": queries,
        # Wall time queued queries waited for admission, per query.
        "queue_wait_ms": (
            admission.counts.get("queue_wait_ns", 0) / queries / 1e6
            if admission else 0.0
        ),
        "worker_spans": spans,
        "worker_spans_attached": attached,
        "shares": shares,
        "spans": table,
    }


# --------------------------------------------------------------------- #
# Cross-workload check of the predicted interactions.
# --------------------------------------------------------------------- #
def share_of(shares: dict[str, float], layer: str) -> float:
    return sum(value for name, value in shares.items() if within(name, layer))


def check_predictions(records: dict[str, dict]) -> list[dict]:
    """For every predicted layer: its share per workload, the workloads
    where it is highest and lowest, and whether they match."""
    rows = []
    for layer, highest, lowest, moves in PREDICTIONS:
        per_workload = {
            name: share_of(record["layers"]["shares"], layer)
            for name, record in sorted(records.items())
        }
        top = max(per_workload, key=per_workload.get)
        bottom = min(per_workload, key=per_workload.get)
        match = top == highest and (lowest is None or bottom in lowest)
        rows.append({
            "layer": layer, "shares": per_workload, "highest": top,
            "lowest": bottom, "predicted_highest": highest,
            "predicted_lowest": list(lowest) if lowest else None,
            "moves": moves, "match": match,
        })
    return rows


def render(rows: list[dict]) -> str:
    workloads = list(rows[0]["shares"]) if rows else []
    lines = [
        "| layer | " + " | ".join(workloads) + " | highest | lowest | predicted | check |",
        "|---" * (len(workloads) + 5) + "|",
    ]
    for row in rows:
        predicted = row["predicted_highest"]
        if row["predicted_lowest"]:
            predicted += " / low: " + ", ".join(row["predicted_lowest"])
        lines.append(
            f"| `{row['layer']}` | "
            + " | ".join(f"{row['shares'][w]:.1%}" for w in workloads)
            + f" | {row['highest']} | {row['lowest']} | {predicted} | "
            + ("ok" if row["match"] else "**MISMATCH**") + " |"
        )
    return "\n".join(lines)


def main(paths: list[str]) -> int:
    records = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if "layers" in record:
            records[record["workload"]] = record
    if len(records) < 2:
        print("need traced result files of at least two workloads", file=sys.stderr)
        return 2
    rows = check_predictions(records)
    print(render(rows))
    mismatches = [row["layer"] for row in rows if not row["match"]]
    print(
        f"\n{len(rows) - len(mismatches)} of {len(rows)} predictions hold"
        + (f"; mismatched: {', '.join(mismatches)}" if mismatches else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
