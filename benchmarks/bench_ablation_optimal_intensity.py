"""Ablation: the Eq. 4 cost-optimal write intensity for segment sort.

DESIGN.md calls out the closed-form optimum as a design choice; this
ablation compares the intensity the solver picks against an empirical grid
of manually chosen intensities.
"""

from repro.bench.harness import make_environment, run_sort
from repro.bench.reporting import format_table
from repro.sorts import SegmentSort
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_sort_input

from conftest import attach_summary, run_experiment

NUM_RECORDS = 2_500
MANUAL_INTENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def sweep_intensities():
    env = make_environment()
    collection = make_sort_input(NUM_RECORDS, env.backend)
    budget = MemoryBudget.fraction_of(collection, 0.08)
    rows = []
    for intensity in MANUAL_INTENSITIES:
        row = run_sort(
            SegmentSort(env.backend, budget, write_intensity=intensity),
            collection,
            label=f"manual {intensity:.1f}",
        )
        row["intensity"] = intensity
        rows.append(row)
    solver = SegmentSort(env.backend, budget)
    chosen = solver.resolve_intensity(collection.num_buffers)
    row = run_sort(solver, collection, label="Eq. 4 optimum")
    row["intensity"] = chosen
    rows.append(row)
    return rows


def test_ablation_optimal_write_intensity(benchmark, report):
    rows = run_experiment(benchmark, sweep_intensities)
    report(
        format_table(
            rows,
            [
                "algorithm",
                "intensity",
                "simulated_seconds",
                "cacheline_writes",
                "cacheline_reads",
            ],
            title="Ablation - manual vs Eq. 4 cost-optimal write intensity (SegS)",
        )
    )
    optimum = next(row for row in rows if row["algorithm"] == "Eq. 4 optimum")
    manual = [row for row in rows if row["algorithm"] != "Eq. 4 optimum"]
    best_manual = min(row["simulated_seconds"] for row in manual)
    attach_summary(
        benchmark,
        chosen_intensity=optimum["intensity"],
        optimum_seconds=optimum["simulated_seconds"],
        best_manual_seconds=best_manual,
    )
    # The solver's pick lands within 15 % of the best grid point.
    assert optimum["simulated_seconds"] <= best_manual * 1.15
