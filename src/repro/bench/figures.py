"""The paper's figures and tables, each declared once.

An entry names the line ``python -m repro list`` prints for it, the
experiment call that produces its rows from the parsed ``figure``/``table``
arguments, and the text printed for those rows.  The CLI and
``benchmarks/bench_figures.py`` both render from :data:`FIGURES` and
:data:`TABLES`, so a figure prints the same panels wherever it is run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench import experiments
from repro.bench.reporting import format_series, format_surface, format_table


@dataclass(frozen=True)
class Exhibit:
    """One figure or table: what it is, its rows, and how they print."""

    description: str
    #: The parsed CLI arguments -> the experiment's rows.
    rows: Callable[..., list]
    #: Those rows -> the printed report.
    render: Callable[[list], str]


def _table(columns, title):
    return lambda rows: format_table(rows, columns, title=title)


def _cost_surfaces(rows) -> str:
    summary = format_table(
        rows,
        ["size_ratio", "lambda", "best_x", "best_y", "cost_at_grace", "cost_at_origin"],
        title="Figure 2 - hybrid join cost surface summary",
    )
    return "\n\n".join([summary, *(format_surface(row["surface"]) for row in rows)])


def _memory_sweep(figure, operation):
    """The response-time series and the min/max writes table under it."""

    def render(rows) -> str:
        return "\n\n".join(
            [
                format_series(
                    rows,
                    "memory_fraction",
                    "simulated_seconds",
                    title=f"Figure {figure} - {operation} response time vs memory fraction",
                ),
                format_table(
                    experiments.writes_reads_summary(rows),
                    [
                        "algorithm",
                        "min_writes",
                        "reads_at_min_writes",
                        "max_writes",
                        "reads_at_max_writes",
                    ],
                    title=f"Figure {figure} - min/max cacheline writes (reads)",
                ),
            ]
        )

    return render


def _per_backend(figure, operation):
    """One series panel per backend, in the order the rows ran them."""

    def render(rows) -> str:
        backends = dict.fromkeys(row["backend"] for row in rows)
        return "\n\n".join(
            format_series(
                [row for row in rows if row["backend"] == backend],
                "memory_fraction",
                "simulated_seconds",
                title=f"Figure {figure} - {operation} on the {backend} backend",
            )
            for backend in backends
        )

    return render


FIGURES = {
    2: Exhibit(
        "Hybrid Grace/nested-loops cost surface",
        lambda args: experiments.hybrid_cost_surfaces(grid_points=args.grid),
        _cost_surfaces,
    ),
    5: Exhibit(
        "Sort response time and I/O vs memory",
        lambda args: experiments.sort_memory_sweep(
            num_records=args.records,
            memory_fractions=args.fractions,
            backend_name=args.backend,
        ),
        _memory_sweep(5, "sort"),
    ),
    6: Exhibit(
        "Sorting under the four persistence backends",
        lambda args: experiments.sort_backend_comparison(
            num_records=args.records, memory_fractions=args.fractions
        ),
        _per_backend(6, "sorting"),
    ),
    7: Exhibit(
        "Join response time and I/O vs memory",
        lambda args: experiments.join_memory_sweep(
            left_records=args.left,
            right_records=args.right,
            memory_fractions=args.fractions,
            backend_name=args.backend,
        ),
        _memory_sweep(7, "join"),
    ),
    8: Exhibit(
        "Joins under the four persistence backends",
        lambda args: experiments.join_backend_comparison(
            left_records=args.left,
            right_records=args.right,
            memory_fractions=args.fractions,
        ),
        _per_backend(8, "joins"),
    ),
    9: Exhibit(
        "Sort write-intensity sensitivity",
        lambda args: experiments.sort_write_intensity(
            num_records=args.records, backends=(args.backend,)
        ),
        _table(
            ["algorithm", "backend", "simulated_seconds", "cacheline_writes", "cacheline_reads"],
            "Figure 9 - sort write-intensity sweep",
        ),
    ),
    10: Exhibit(
        "Join write-intensity sensitivity",
        lambda args: experiments.join_write_intensity(
            left_records=args.left, right_records=args.right, backend_name=args.backend
        ),
        _table(
            ["algorithm", "simulated_seconds", "cacheline_writes", "cacheline_reads"],
            "Figure 10 - join write-intensity sweep",
        ),
    ),
    11: Exhibit(
        "Write-latency sensitivity",
        lambda args: experiments.latency_sensitivity(
            num_sort_records=args.records,
            join_left_records=args.left,
            join_right_records=args.right,
            backend_name=args.backend,
        ),
        lambda rows: format_series(
            rows,
            "write_latency_ns",
            "simulated_seconds",
            title="Figure 11 - response time vs write latency",
        ),
    ),
    12: Exhibit(
        "Cost-model validation (Kendall's tau)",
        lambda args: experiments.cost_model_validation(
            num_sort_records=args.records,
            join_left_records=args.left,
            join_right_records=args.right,
            memory_fractions=args.fractions,
            backend_name=args.backend,
        ),
        _table(
            ["operation", "scope", "memory_fraction", "kendall_tau"],
            "Figure 12 - cost-model concordance (Kendall's tau)",
        ),
    ),
}

TABLES = {
    1: Exhibit(
        "Standard vs lazy hash join progression",
        lambda args: experiments.lazy_hash_table1(num_partitions=args.partitions),
        _table(
            [
                "iteration",
                "standard_reads",
                "standard_writes",
                "lazy_reads",
                "lazy_writes",
                "savings",
                "penalty",
            ],
            "Table 1 - standard vs lazy hash join progression",
        ),
    ),
}
