"""Write-limited grouped aggregation (the paper's future-work extension).

Run with::

    python examples/grouped_aggregation.py

Section 6 of the paper suggests extending write-limited processing to
aggregation.  This example compares the two strategies shipped in
``repro.aggregation`` on a grouped workload with far more groups than the
DRAM budget can hold: hash aggregation spills raw records to persistent
memory, while the sort-based strategy pipes a write-limited sort straight
into a streaming group-by and writes only the aggregate output.
"""

from repro.aggregation import HashAggregation, SortedAggregation
from repro.bench.harness import make_environment
from repro.bench.reporting import format_table
from repro.sorts import LazySort, SegmentSort
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import load_collection
from repro.storage.schema import WISCONSIN_SCHEMA


def main() -> None:
    env = make_environment("blocked_memory")
    # 6,000 order lines spread over 600 customers (the grouping attribute).
    records = (
        WISCONSIN_SCHEMA.make_record((i * 131) % 600) for i in range(6_000)
    )
    orders = load_collection(records, env.backend, "orders")
    budget = MemoryBudget(64 * 64)  # room for ~64 group states
    aggregates = {"count": 0, "sum": 4, "max": 4}
    print(
        f"{len(orders)} records, 600 groups, DRAM for "
        f"~{budget.nbytes // 64} group states\n"
    )

    strategies = {
        "HashAgg (spilling baseline)": HashAggregation(
            env.backend, budget, aggregates=aggregates
        ),
        "SortAgg over SegS (write-limited)": SortedAggregation(
            env.backend, budget, aggregates=aggregates, sort_class=SegmentSort
        ),
        "SortAgg over LaS (minimal writes)": SortedAggregation(
            env.backend, budget, aggregates=aggregates, sort_class=LazySort
        ),
    }
    rows = []
    reference = None
    for label, operator in strategies.items():
        result = operator.aggregate(orders)
        groups = sorted(result.output.records)
        if reference is None:
            reference = groups
        assert groups == reference, "strategies must agree on the result"
        rows.append(
            {
                "strategy": label,
                "groups": result.groups,
                "spills": result.spills,
                "writes": result.cacheline_writes,
                "reads": result.cacheline_reads,
                "milliseconds": result.simulated_seconds * 1e3,
            }
        )
    print(
        format_table(
            rows,
            ["strategy", "groups", "spills", "writes", "reads", "milliseconds"],
            title="Grouped aggregation under memory pressure (lambda = 15)",
        )
    )
    print(
        "\nAll strategies return identical groups; the sort-based ones trade"
        "\nre-reads for persistent-memory writes, exactly like the paper's"
        "\nsorts and joins."
    )


if __name__ == "__main__":
    main()
