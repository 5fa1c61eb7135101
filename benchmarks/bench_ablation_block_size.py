"""Ablation: persistence-layer block size.

Section 4 of the paper tests block sizes from 512 to 8192 bytes and
reports a ~10 % improvement when moving from 512 to 1024 bytes and
insignificant gains beyond; this ablation reproduces that sweep on the
RAM-disk backend (where the block size matters most) for external
mergesort.
"""

from repro.bench.harness import make_environment, run_sort
from repro.bench.reporting import format_table
from repro.sorts import ExternalMergeSort
from repro.storage.bufferpool import MemoryBudget
from repro.workloads.generator import make_sort_input

from conftest import attach_summary, run_experiment

BLOCK_SIZES = (512, 1024, 2048, 4096, 8192)
NUM_RECORDS = 2_000


def sweep_block_sizes():
    rows = []
    for block_bytes in BLOCK_SIZES:
        env = make_environment(
            "ramdisk", block_bytes=block_bytes, fs_block_bytes=block_bytes
        )
        collection = make_sort_input(NUM_RECORDS, env.backend)
        budget = MemoryBudget.fraction_of(collection, 0.08)
        row = run_sort(ExternalMergeSort(env.backend, budget), collection)
        row["block_bytes"] = block_bytes
        rows.append(row)
    return rows


def test_ablation_block_size(benchmark, report):
    rows = run_experiment(benchmark, sweep_block_sizes)
    report(
        format_table(
            rows,
            ["block_bytes", "simulated_seconds", "cacheline_writes", "cacheline_reads"],
            title="Ablation - RAM-disk block size for external mergesort",
        )
    )
    attach_summary(benchmark, block_sizes=list(BLOCK_SIZES))

    by_block = {row["block_bytes"]: row["simulated_seconds"] for row in rows}
    # Moving from 512-byte records to larger blocks reduces per-call
    # overhead; beyond 1 KiB the improvement flattens out.
    assert by_block[1024] <= by_block[512]
    improvement_512_1024 = by_block[512] - by_block[1024]
    improvement_1024_8192 = by_block[1024] - by_block[8192]
    assert improvement_1024_8192 <= improvement_512_1024 * 1.5
