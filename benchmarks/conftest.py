"""Shared helpers for the benchmark targets.

``bench_figures.py`` regenerates the paper's figures and Table 1 from
their declarations in :mod:`repro.bench.figures`; the other files run
ablations, the planner against fixed algorithms, and the multi-query,
sharded and deferred-pipeline workloads.  Each runs its experiment exactly
once under pytest-benchmark (the interesting output is the experiment's
own data, not the wall-clock time of the Python simulator) and prints the
rows/series it measured.
"""

from __future__ import annotations

import pytest


def run_experiment(benchmark, experiment, *args, **kwargs):
    """Run an experiment once under pytest-benchmark and return its rows."""
    result = benchmark.pedantic(
        experiment, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    return result


def attach_summary(benchmark, **info) -> None:
    """Record experiment metadata in the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


@pytest.fixture
def report(capsys):
    """Print a report section so it survives pytest's output capturing."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _report
