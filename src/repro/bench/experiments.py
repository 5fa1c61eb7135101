"""Per-figure experiment definitions.

Every public function regenerates the data behind one table or figure of
the paper's evaluation section, at the scale its caller passes.  Each
returns a list of plain dictionaries -- one row per plotted point -- which
:mod:`repro.bench.figures` renders through :mod:`repro.bench.reporting`.

The input sizes are the CLI's (``python -m repro figure --help``), far
below the paper's; the structure (memory expressed as a fraction of the
input, a 1:10 join cardinality ratio with a fanout of 10) follows the
paper exactly.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.analysis.concordance import concordance
from repro.analysis.heatmap import FIGURE2_LAMBDAS, FIGURE2_SIZE_RATIOS, hybrid_cost_surface
from repro.analysis.table1 import lazy_hash_progression
from repro.bench.harness import (
    budget_for,
    join_algorithm_suite,
    make_environment,
    run_join,
    run_sort,
    sort_algorithm_suite,
)
from repro.joins import (
    GraceJoin,
    HybridGraceNestedLoopsJoin,
    LazyHashJoin,
    SegmentedGraceJoin,
    SimpleHashJoin,
    NestedLoopsJoin,
)
from repro.joins import cost as join_cost
from repro.pmem.backends import BACKEND_PAPER_ORDER
from repro.query import (
    JOIN_ALTERNATIVES,
    SORT_ALTERNATIVES,
    CostBasedPlanner,
    Query,
)
from repro.sorts import ExternalMergeSort, HybridSort, LazySort, SegmentSort
from repro.workloads.generator import make_join_inputs, make_sort_input

#: Memory sizes as fractions of the (left) input, mirroring the 1-15 % sweep.
DEFAULT_MEMORY_FRACTIONS = (0.02, 0.05, 0.08, 0.11, 0.15)

#: The write intensities Figures 9 and 10 sweep, at this memory fraction
#: (which Figure 11 uses too).
SWEPT_INTENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
SWEEP_MEMORY_FRACTION = 0.08

#: Figure 11's write latencies in ns (reads stay at 10 ns).
WRITE_LATENCIES_NS = (50.0, 100.0, 150.0, 200.0)


# --------------------------------------------------------------------- #
# Figure 2 and Table 1 (analytical).
# --------------------------------------------------------------------- #
def hybrid_cost_surfaces(grid_points: int) -> list[dict]:
    """Figure 2: the nine Jh(x, y) heatmap panels, summarized per panel."""
    rows = []
    for lam in FIGURE2_LAMBDAS:
        for ratio in FIGURE2_SIZE_RATIOS:
            surface = hybrid_cost_surface(ratio, lam, grid_points=grid_points)
            best_x, best_y = surface.minimum_cell()
            rows.append(
                {
                    "size_ratio": ratio,
                    "lambda": lam,
                    "best_x": best_x,
                    "best_y": best_y,
                    "cost_at_origin": surface.value_at(0.0, 0.0),
                    "cost_at_grace": surface.value_at(1.0, 1.0),
                    "surface": surface,
                }
            )
    return rows


def lazy_hash_table1(num_partitions: int) -> list[dict]:
    """Table 1: the per-iteration standard-vs-lazy hash join progression,
    for 1,000 left and 10,000 right buffers per iteration at lambda = 15."""
    rows = lazy_hash_progression(num_partitions, 1_000.0, 10_000.0, 15.0)
    return [asdict(row) for row in rows]


# --------------------------------------------------------------------- #
# Figures 5 and 6: sorting.
# --------------------------------------------------------------------- #
def sort_memory_sweep(
    num_records: int,
    memory_fractions=DEFAULT_MEMORY_FRACTIONS,
    backend_name: str = "blocked_memory",
) -> list[dict]:
    """Figure 5: sort response time and I/O versus available memory."""
    env = make_environment(backend_name)
    collection = make_sort_input(num_records, env.backend)
    suite = sort_algorithm_suite()
    rows = []
    for fraction in memory_fractions:
        budget = budget_for(collection, fraction)
        for label, factory in suite.items():
            rows.append(
                run_sort(factory, collection, env.backend, budget, label=label)
            )
    return rows


def sort_backend_comparison(
    num_records: int, memory_fractions=(0.05, 0.15)
) -> list[dict]:
    """Figure 6: the same sort sweep under each persistence backend."""
    rows = []
    for backend_name in BACKEND_PAPER_ORDER:
        rows.extend(
            sort_memory_sweep(
                num_records=num_records,
                memory_fractions=memory_fractions,
                backend_name=backend_name,
            )
        )
    return rows


def sort_write_intensity(
    num_records: int, backends=BACKEND_PAPER_ORDER
) -> list[dict]:
    """Figure 9: impact of the write-intensity knob on SegS and HybS."""
    rows = []
    for backend_name in backends:
        env = make_environment(backend_name)
        collection = make_sort_input(num_records, env.backend)
        budget = budget_for(collection, SWEEP_MEMORY_FRACTION)
        for intensity in SWEPT_INTENSITIES:
            label = f"{int(round(intensity * 100))}%"
            rows.append(
                run_sort(
                    lambda b, m, i=intensity: SegmentSort(b, m, write_intensity=i),
                    collection,
                    env.backend,
                    budget,
                    label=f"SegS, {label}",
                )
            )
            rows.append(
                run_sort(
                    lambda b, m, i=intensity: HybridSort(b, m, write_intensity=i),
                    collection,
                    env.backend,
                    budget,
                    label=f"HybS, {label}",
                )
            )
    return rows


# --------------------------------------------------------------------- #
# Figures 7 and 8: joins.
# --------------------------------------------------------------------- #
def join_memory_sweep(
    left_records: int,
    right_records: int,
    memory_fractions=DEFAULT_MEMORY_FRACTIONS,
    backend_name: str = "blocked_memory",
    hybrid_intensities=((0.2, 0.8), (0.5, 0.5), (0.8, 0.2)),
    segmented_intensities=(0.2, 0.5, 0.8),
) -> list[dict]:
    """Figure 7: join response time and I/O versus available memory."""
    env = make_environment(backend_name)
    left, right = make_join_inputs(left_records, right_records, env.backend)
    suite = join_algorithm_suite(
        hybrid_intensities=hybrid_intensities,
        segmented_intensities=segmented_intensities,
    )
    rows = []
    for fraction in memory_fractions:
        budget = budget_for(left, fraction)
        for label, factory in suite.items():
            rows.append(
                run_join(factory, left, right, env.backend, budget, label=label)
            )
    return rows


def join_backend_comparison(
    left_records: int, right_records: int, memory_fractions=(0.05, 0.15)
) -> list[dict]:
    """Figure 8: the Figure 7(a) line-up under each persistence backend."""
    rows = []
    for backend_name in BACKEND_PAPER_ORDER:
        rows.extend(
            join_memory_sweep(
                left_records=left_records,
                right_records=right_records,
                memory_fractions=memory_fractions,
                backend_name=backend_name,
                hybrid_intensities=((0.5, 0.5),),
                segmented_intensities=(0.5,),
            )
        )
    return rows


def join_write_intensity(
    left_records: int, right_records: int, backend_name: str = "blocked_memory"
) -> list[dict]:
    """Figure 10: impact of write intensity on SegJ and HybJ, the other
    HybJ side held at 20, 50 or 80 %."""
    env = make_environment(backend_name)
    left, right = make_join_inputs(left_records, right_records, env.backend)
    budget = budget_for(left, SWEEP_MEMORY_FRACTION)
    rows = []
    for intensity in SWEPT_INTENSITIES:
        label = f"{int(round(intensity * 100))}%"
        rows.append(
            run_join(
                lambda b, m, i=intensity: SegmentedGraceJoin(b, m, write_intensity=i),
                left,
                right,
                env.backend,
                budget,
                label=f"SegJ, {label}",
            )
        )
        for fixed in (0.2, 0.5, 0.8):
            fixed_label = f"{int(round(fixed * 100))}%"
            rows.append(
                run_join(
                    lambda b, m, x=intensity, y=fixed: HybridGraceNestedLoopsJoin(
                        b, m, left_intensity=x, right_intensity=y
                    ),
                    left,
                    right,
                    env.backend,
                    budget,
                    label=f"HybJ, x - {fixed_label}",
                )
            )
            rows.append(
                run_join(
                    lambda b, m, x=fixed, y=intensity: HybridGraceNestedLoopsJoin(
                        b, m, left_intensity=x, right_intensity=y
                    ),
                    left,
                    right,
                    env.backend,
                    budget,
                    label=f"HybJ, {fixed_label} - x",
                )
            )
    return rows


# --------------------------------------------------------------------- #
# Figure 11: write-latency sensitivity.
# --------------------------------------------------------------------- #
def latency_sensitivity(
    num_sort_records: int,
    join_left_records: int,
    join_right_records: int,
    backend_name: str = "blocked_memory",
) -> list[dict]:
    """Figure 11: selected sort and join algorithms across write latencies."""
    rows = []
    for write_ns in WRITE_LATENCIES_NS:
        env = make_environment(backend_name, write_ns=write_ns)
        sort_input = make_sort_input(num_sort_records, env.backend)
        sort_budget = budget_for(sort_input, SWEEP_MEMORY_FRACTION)
        sort_line_up = {
            "LaS": lambda b, m: LazySort(b, m),
            "HybS, 20%": lambda b, m: HybridSort(b, m, write_intensity=0.2),
            "HybS, 50%": lambda b, m: HybridSort(b, m, write_intensity=0.5),
            "SegS, 20%": lambda b, m: SegmentSort(b, m, write_intensity=0.2),
            "SegS, 50%": lambda b, m: SegmentSort(b, m, write_intensity=0.5),
        }
        for label, factory in sort_line_up.items():
            row = run_sort(factory, sort_input, env.backend, sort_budget, label=label)
            row["write_latency_ns"] = write_ns
            row["operation"] = "sort"
            rows.append(row)

        left, right = make_join_inputs(
            join_left_records, join_right_records, env.backend
        )
        join_budget = budget_for(left, SWEEP_MEMORY_FRACTION)
        join_line_up = {
            "HybJ, 50% - 20%": lambda b, m: HybridGraceNestedLoopsJoin(
                b, m, left_intensity=0.5, right_intensity=0.2
            ),
            "HybJ, 50% - 50%": lambda b, m: HybridGraceNestedLoopsJoin(
                b, m, left_intensity=0.5, right_intensity=0.5
            ),
            "SegJ, 20%": lambda b, m: SegmentedGraceJoin(b, m, write_intensity=0.2),
            "SegJ, 50%": lambda b, m: SegmentedGraceJoin(b, m, write_intensity=0.5),
            "LaJ": lambda b, m: LazyHashJoin(b, m),
        }
        for label, factory in join_line_up.items():
            row = run_join(factory, left, right, env.backend, join_budget, label=label)
            row["write_latency_ns"] = write_ns
            row["operation"] = "join"
            rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 12: cost-model validation.
# --------------------------------------------------------------------- #
def cost_model_validation(
    num_sort_records: int,
    join_left_records: int,
    join_right_records: int,
    memory_fractions=DEFAULT_MEMORY_FRACTIONS,
    backend_name: str = "blocked_memory",
) -> list[dict]:
    """Figure 12: Kendall's tau between estimated and measured rankings.

    The lazy algorithms are excluded, as in the paper, because their
    decisions are dynamic rather than compile-time estimable.
    """
    env = make_environment(backend_name)
    sort_input = make_sort_input(num_sort_records, env.backend)
    left, right = make_join_inputs(join_left_records, join_right_records, env.backend)

    sort_line_up = {
        "ExMS": (ExternalMergeSort, {}, False),
        "SegS-20": (SegmentSort, {"write_intensity": 0.2}, True),
        "SegS-80": (SegmentSort, {"write_intensity": 0.8}, True),
        "HybS-20": (HybridSort, {"write_intensity": 0.2}, True),
        "HybS-80": (HybridSort, {"write_intensity": 0.8}, True),
    }
    join_line_up = {
        "GJ": (GraceJoin, {}, False),
        "HJ": (SimpleHashJoin, {}, False),
        "NLJ": (NestedLoopsJoin, {}, False),
        "SegJ-50": (SegmentedGraceJoin, {"write_intensity": 0.5}, True),
        "HybJ-50-50": (
            HybridGraceNestedLoopsJoin,
            {"left_intensity": 0.5, "right_intensity": 0.5},
            True,
        ),
    }

    rows = []
    for fraction in memory_fractions:
        sort_budget = budget_for(sort_input, fraction)
        estimated, measured, limited_estimated, limited_measured = {}, {}, {}, {}
        for label, (cls, kwargs, is_write_limited) in sort_line_up.items():
            algorithm = cls(env.backend, sort_budget, **kwargs)
            estimated[label] = algorithm.estimated_cost_ns(sort_input.num_buffers)
            result = algorithm.sort(sort_input)
            measured[label] = result.io.total_ns
            result.output.drop()
            if is_write_limited:
                limited_estimated[label] = estimated[label]
                limited_measured[label] = measured[label]
        rows.append(
            {
                "operation": "sort",
                "scope": "all",
                "memory_fraction": fraction,
                "kendall_tau": concordance(estimated, measured),
            }
        )
        rows.append(
            {
                "operation": "sort",
                "scope": "write-limited",
                "memory_fraction": fraction,
                "kendall_tau": concordance(limited_estimated, limited_measured),
            }
        )

        join_budget = budget_for(left, fraction)
        estimated, measured, limited_estimated, limited_measured = {}, {}, {}, {}
        for label, (cls, kwargs, is_write_limited) in join_line_up.items():
            algorithm = cls(
                env.backend, join_budget, materialize_output=False, **kwargs
            )
            estimated[label] = algorithm.estimated_cost_ns(
                left.num_buffers, right.num_buffers
            )
            result = algorithm.join(left, right)
            measured[label] = result.io.total_ns
            if is_write_limited:
                limited_estimated[label] = estimated[label]
                limited_measured[label] = measured[label]
        rows.append(
            {
                "operation": "join",
                "scope": "all",
                "memory_fraction": fraction,
                "kendall_tau": concordance(estimated, measured),
            }
        )
        rows.append(
            {
                "operation": "join",
                "scope": "write-limited",
                "memory_fraction": fraction,
                "kendall_tau": concordance(limited_estimated, limited_measured),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Planner validation: cost-based choice vs. the measured-best fixed
# algorithm across the Figure 9/10 write-intensity grid.
# --------------------------------------------------------------------- #

#: Device write latencies spanning the paper's asymmetry range; with 10 ns
#: reads these give lambda in {2, 6, 15, 30, 60}.
DEFAULT_PLANNER_WRITE_LATENCIES = (20.0, 60.0, 150.0, 300.0, 600.0)


def planner_vs_fixed_sort(
    num_records: int,
    write_latencies=DEFAULT_PLANNER_WRITE_LATENCIES,
    memory_fractions=DEFAULT_MEMORY_FRACTIONS,
    backend_name: str = "blocked_memory",
) -> list[dict]:
    """Planner-chosen vs. measured-cheapest sort on the (lambda, M) grid.

    For every grid point each fixed sort runs to completion and the
    planner plans ``Scan >> OrderBy`` from the cost models alone; a row
    records whether the choices agree and the planner's regret (the
    measured slowdown of its choice over the measured best).
    """
    rows = []
    for write_ns in write_latencies:
        env = make_environment(backend_name, write_ns=write_ns)
        collection = make_sort_input(num_records, env.backend)
        for fraction in memory_fractions:
            budget = budget_for(collection, fraction)
            measured = {}
            for label, sort_class in SORT_ALTERNATIVES.items():
                row = run_sort(
                    lambda b, m, cls=sort_class: cls(b, m),
                    collection,
                    env.backend,
                    budget,
                    label=label,
                )
                measured[label] = row["simulated_seconds"]
            plan = CostBasedPlanner(env.backend, budget).plan(
                Query.scan(collection).order_by()
            )
            rows.append(
                _planner_row(
                    "sort", env, fraction, plan.root.operator, measured
                )
            )
    return rows


def planner_vs_fixed_join(
    left_records: int,
    right_records: int,
    write_latencies=DEFAULT_PLANNER_WRITE_LATENCIES,
    memory_fractions=DEFAULT_MEMORY_FRACTIONS,
    backend_name: str = "blocked_memory",
) -> list[dict]:
    """Planner-chosen vs. measured-cheapest join on the (lambda, M) grid."""
    rows = []
    for write_ns in write_latencies:
        env = make_environment(backend_name, write_ns=write_ns)
        left, right = make_join_inputs(left_records, right_records, env.backend)
        # The paper's convention (and the planner's): T, the build input,
        # is the smaller one.  Running the fixed algorithms on the same
        # build side keeps the Grace gate and the comparison aligned with
        # the planner's candidate space.
        build, probe = (
            (left, right) if left.nbytes <= right.nbytes else (right, left)
        )
        for fraction in memory_fractions:
            budget = budget_for(build, fraction)
            measured = {}
            for label, join_class in JOIN_ALTERNATIVES.items():
                if label == "GJ" and not join_cost.grace_applicable(
                    build.num_buffers, budget.buffers
                ):
                    continue
                row = run_join(
                    lambda b, m, cls=join_class: cls(b, m),
                    build,
                    probe,
                    env.backend,
                    budget,
                    label=label,
                )
                measured[label] = row["simulated_seconds"]
            plan = CostBasedPlanner(env.backend, budget).plan(
                Query.scan(left).join(Query.scan(right))
            )
            rows.append(
                _planner_row(
                    "join", env, fraction, plan.root.operator, measured
                )
            )
    return rows


def _planner_row(operation, env, fraction, chosen, measured) -> dict:
    measured_best = min(measured, key=measured.get)
    return {
        "operation": operation,
        "backend": env.backend_name,
        "lambda": env.device.write_read_ratio,
        "memory_fraction": fraction,
        "chosen": chosen,
        "measured_best": measured_best,
        "match": chosen == measured_best,
        "regret": measured[chosen] / measured[measured_best] - 1.0,
        "measured_seconds": dict(measured),
    }


def planner_match_rate(rows: list[dict]) -> float:
    """Fraction of grid points where the planner picked the measured best."""
    if not rows:
        return 0.0
    return sum(1 for row in rows if row["match"]) / len(rows)


# --------------------------------------------------------------------- #
# Summaries shared by the figure tables.
# --------------------------------------------------------------------- #
def writes_reads_summary(rows: list[dict]) -> list[dict]:
    """The min/max cacheline writes (reads) table under Figures 5 and 7."""
    per_algorithm: dict[str, list[dict]] = {}
    for row in rows:
        per_algorithm.setdefault(row["algorithm"], []).append(row)
    summary = []
    for algorithm, algorithm_rows in per_algorithm.items():
        by_writes = sorted(algorithm_rows, key=lambda r: r["cacheline_writes"])
        minimum, maximum = by_writes[0], by_writes[-1]
        summary.append(
            {
                "algorithm": algorithm,
                "min_writes": minimum["cacheline_writes"],
                "reads_at_min_writes": minimum["cacheline_reads"],
                "max_writes": maximum["cacheline_writes"],
                "reads_at_max_writes": maximum["cacheline_reads"],
            }
        )
    return summary
