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
from functools import partial

from repro.analysis.concordance import concordance
from repro.analysis.heatmap import FIGURE2_LAMBDAS, FIGURE2_SIZE_RATIOS, hybrid_cost_surface
from repro.analysis.table1 import lazy_hash_progression
from repro.bench.harness import make_environment, run_join, run_sort
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
from repro.storage.bufferpool import MemoryBudget
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
# Line-ups: each figure's algorithms, keyed by the label it prints.  An
# entry is an algorithm class, or a ``functools.partial`` of one carrying
# the figure's write intensities; either builds the configured algorithm
# when called with ``(backend, budget)`` and the algorithm's keywords.
# --------------------------------------------------------------------- #
def _percent(intensity: float) -> str:
    return f"{int(round(intensity * 100))}%"


def _hybrid_join(left_intensity: float, right_intensity: float) -> partial:
    return partial(
        HybridGraceNestedLoopsJoin,
        left_intensity=left_intensity,
        right_intensity=right_intensity,
    )


#: Figure 5 (and 6): HybS and SegS at write intensities of 20 and 80 %.
SORT_LINE_UP = {
    "ExMS": ExternalMergeSort,
    "LaS": LazySort,
    "HybS, 20%": partial(HybridSort, write_intensity=0.2),
    "SegS, 20%": partial(SegmentSort, write_intensity=0.2),
    "HybS, 80%": partial(HybridSort, write_intensity=0.8),
    "SegS, 80%": partial(SegmentSort, write_intensity=0.8),
}

#: Figure 7(a): SegJ at 20, 50 and 80 %, HybJ at three (x, y) splits.
JOIN_LINE_UP = {
    "NLJ": NestedLoopsJoin,
    "HJ": SimpleHashJoin,
    "GJ": GraceJoin,
    "LaJ": LazyHashJoin,
    "SegJ, 20%": partial(SegmentedGraceJoin, write_intensity=0.2),
    "SegJ, 50%": partial(SegmentedGraceJoin, write_intensity=0.5),
    "SegJ, 80%": partial(SegmentedGraceJoin, write_intensity=0.8),
    "HybJ, 20% - 80%": _hybrid_join(0.2, 0.8),
    "HybJ, 50% - 50%": _hybrid_join(0.5, 0.5),
    "HybJ, 80% - 20%": _hybrid_join(0.8, 0.2),
}

#: Figure 8: Figure 7(a)'s line-up with SegJ and HybJ at 50 % only.
BACKEND_JOIN_LINE_UP = {
    label: JOIN_LINE_UP[label]
    for label in ("NLJ", "HJ", "GJ", "LaJ", "SegJ, 50%", "HybJ, 50% - 50%")
}

#: Figure 9: SegS and HybS at each swept write intensity.
SORT_INTENSITY_LINE_UP = {
    f"{name}, {_percent(intensity)}": partial(cls, write_intensity=intensity)
    for intensity in SWEPT_INTENSITIES
    for name, cls in (("SegS", SegmentSort), ("HybS", HybridSort))
}

#: Figure 11's sorts and joins.
LATENCY_SORT_LINE_UP = {
    "LaS": LazySort,
    "HybS, 20%": partial(HybridSort, write_intensity=0.2),
    "HybS, 50%": partial(HybridSort, write_intensity=0.5),
    "SegS, 20%": partial(SegmentSort, write_intensity=0.2),
    "SegS, 50%": partial(SegmentSort, write_intensity=0.5),
}
LATENCY_JOIN_LINE_UP = {
    "HybJ, 50% - 20%": _hybrid_join(0.5, 0.2),
    "HybJ, 50% - 50%": _hybrid_join(0.5, 0.5),
    "SegJ, 20%": partial(SegmentedGraceJoin, write_intensity=0.2),
    "SegJ, 50%": partial(SegmentedGraceJoin, write_intensity=0.5),
    "LaJ": LazyHashJoin,
}

#: Figure 12, per operation.  The lazy algorithms are left out, as in the
#: paper, because their decisions are dynamic rather than compile-time
#: estimable; the write-limited scope is each class's ``write_limited``.
VALIDATION_LINE_UPS = {
    "sort": {
        "ExMS": ExternalMergeSort,
        "SegS-20": partial(SegmentSort, write_intensity=0.2),
        "SegS-80": partial(SegmentSort, write_intensity=0.8),
        "HybS-20": partial(HybridSort, write_intensity=0.2),
        "HybS-80": partial(HybridSort, write_intensity=0.8),
    },
    "join": {
        "GJ": GraceJoin,
        "HJ": SimpleHashJoin,
        "NLJ": NestedLoopsJoin,
        "SegJ-50": partial(SegmentedGraceJoin, write_intensity=0.5),
        "HybJ-50-50": _hybrid_join(0.5, 0.5),
    },
}


def _run_sorts(line_up, collection, backend, budget) -> list[dict]:
    return [
        run_sort(build(backend, budget), collection, label=label)
        for label, build in line_up.items()
    ]


def _run_joins(line_up, left, right, backend, budget) -> list[dict]:
    """One row per join of ``line_up``, each built to pipeline its output.

    The paper's join cost analysis (Eq. 6 and 9) factors the output term
    out: it is identical across algorithms and would otherwise dominate
    the comparison.
    """
    return [
        run_join(
            build(backend, budget, materialize_output=False), left, right, label=label
        )
        for label, build in line_up.items()
    ]


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
    rows = []
    for fraction in memory_fractions:
        budget = MemoryBudget.fraction_of(collection, fraction)
        rows.extend(_run_sorts(SORT_LINE_UP, collection, env.backend, budget))
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
        budget = MemoryBudget.fraction_of(collection, SWEEP_MEMORY_FRACTION)
        rows.extend(
            _run_sorts(SORT_INTENSITY_LINE_UP, collection, env.backend, budget)
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
    line_up=JOIN_LINE_UP,
) -> list[dict]:
    """Figure 7: join response time and I/O versus available memory."""
    env = make_environment(backend_name)
    left, right = make_join_inputs(left_records, right_records, env.backend)
    rows = []
    for fraction in memory_fractions:
        budget = MemoryBudget.fraction_of(left, fraction)
        rows.extend(_run_joins(line_up, left, right, env.backend, budget))
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
                line_up=BACKEND_JOIN_LINE_UP,
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
    budget = MemoryBudget.fraction_of(left, SWEEP_MEMORY_FRACTION)
    rows = []
    for intensity in SWEPT_INTENSITIES:
        # Each HybJ series sweeps one side (x) and holds the other.
        line_up = {
            f"SegJ, {_percent(intensity)}": partial(
                SegmentedGraceJoin, write_intensity=intensity
            )
        }
        for fixed in (0.2, 0.5, 0.8):
            line_up[f"HybJ, x - {_percent(fixed)}"] = _hybrid_join(intensity, fixed)
            line_up[f"HybJ, {_percent(fixed)} - x"] = _hybrid_join(fixed, intensity)
        rows.extend(_run_joins(line_up, left, right, env.backend, budget))
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
        sort_budget = MemoryBudget.fraction_of(sort_input, SWEEP_MEMORY_FRACTION)
        for row in _run_sorts(
            LATENCY_SORT_LINE_UP, sort_input, env.backend, sort_budget
        ):
            rows.append({**row, "write_latency_ns": write_ns, "operation": "sort"})

        left, right = make_join_inputs(
            join_left_records, join_right_records, env.backend
        )
        join_budget = MemoryBudget.fraction_of(left, SWEEP_MEMORY_FRACTION)
        for row in _run_joins(
            LATENCY_JOIN_LINE_UP, left, right, env.backend, join_budget
        ):
            rows.append({**row, "write_latency_ns": write_ns, "operation": "join"})
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
    """Figure 12: Kendall's tau between estimated and measured rankings,
    over each line-up of :data:`VALIDATION_LINE_UPS` and its write-limited
    algorithms."""
    env = make_environment(backend_name)
    sort_input = make_sort_input(num_sort_records, env.backend)
    left, right = make_join_inputs(join_left_records, join_right_records, env.backend)
    inputs = {"sort": (sort_input,), "join": (left, right)}

    rows = []
    for fraction in memory_fractions:
        for operation, line_up in VALIDATION_LINE_UPS.items():
            operands = inputs[operation]
            budget = MemoryBudget.fraction_of(operands[0], fraction)
            estimated, measured, write_limited = {}, {}, []
            for label, build in line_up.items():
                # A sort writes its output; a join pipelines it (Eq. 6, 9).
                algorithm = build(
                    env.backend, budget, materialize_output=operation == "sort"
                )
                estimated[label] = algorithm.estimated_cost_ns(
                    *(operand.num_buffers for operand in operands)
                )
                # ``algorithm.sort(...)`` or ``algorithm.join(...)``.
                result = getattr(algorithm, operation)(*operands)
                measured[label] = result.io.total_ns
                result.output.drop()
                if algorithm.write_limited:
                    write_limited.append(label)
            scopes = {"all": list(line_up), "write-limited": write_limited}
            for scope, labels in scopes.items():
                rows.append(
                    {
                        "operation": operation,
                        "scope": scope,
                        "memory_fraction": fraction,
                        "kendall_tau": concordance(
                            {label: estimated[label] for label in labels},
                            {label: measured[label] for label in labels},
                        ),
                    }
                )
    return rows


# --------------------------------------------------------------------- #
# Planner validation: cost-based choice vs. the measured-best fixed
# algorithm across the Figure 9/10 write-intensity grid.
# --------------------------------------------------------------------- #
def planner_vs_fixed_sort(
    num_records: int,
    write_latencies,
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
            budget = MemoryBudget.fraction_of(collection, fraction)
            measured = {
                row["algorithm"]: row["simulated_seconds"]
                for row in _run_sorts(
                    SORT_ALTERNATIVES, collection, env.backend, budget
                )
            }
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
    write_latencies,
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
            budget = MemoryBudget.fraction_of(build, fraction)
            line_up = {
                label: join_class
                for label, join_class in JOIN_ALTERNATIVES.items()
                if label != "GJ"
                or join_cost.grace_applicable(build.num_buffers, budget.buffers)
            }
            measured = {
                row["algorithm"]: row["simulated_seconds"]
                for row in _run_joins(line_up, build, probe, env.backend, budget)
            }
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
