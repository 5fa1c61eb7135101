"""Benchmark harness used by the ``benchmarks/`` directory.

The harness keeps the per-figure experiment definitions
(:mod:`repro.bench.experiments`: each figure's line-up, a dict from the
label it prints to an algorithm class or a ``functools.partial`` of one,
and the sweep that runs it) separate from generic plumbing
(:mod:`repro.bench.harness`: :func:`run_sort` and :func:`run_join` run the
configured algorithm they are handed) and from output formatting
(:mod:`repro.bench.reporting`).  :mod:`repro.bench.figures` declares each
figure and table once -- its rows and its report -- for the CLI and
``benchmarks/bench_figures.py`` alike.
"""

from repro.bench.harness import Environment, make_environment, run_join, run_sort
from repro.bench import experiments, reporting

__all__ = [
    "Environment",
    "make_environment",
    "run_sort",
    "run_join",
    "experiments",
    "reporting",
]
