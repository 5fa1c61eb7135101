"""Benchmark harness used by the ``benchmarks/`` directory.

The harness keeps the per-figure experiment definitions
(:mod:`repro.bench.experiments`) separate from generic plumbing
(:mod:`repro.bench.harness`) and from output formatting
(:mod:`repro.bench.reporting`).  :mod:`repro.bench.figures` declares each
figure and table once -- its rows and its report -- for the CLI and
``benchmarks/bench_figures.py`` alike.
"""

from repro.bench.harness import (
    Environment,
    join_algorithm_suite,
    make_environment,
    run_join,
    run_sort,
    sort_algorithm_suite,
)
from repro.bench import experiments, reporting

__all__ = [
    "Environment",
    "make_environment",
    "run_sort",
    "run_join",
    "sort_algorithm_suite",
    "join_algorithm_suite",
    "experiments",
    "reporting",
]
