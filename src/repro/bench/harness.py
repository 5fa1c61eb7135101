"""Generic plumbing for the experiments.

An :class:`Environment` bundles the simulated device and a persistence
backend; :func:`run_sort` / :func:`run_join` run one configured algorithm
-- built over that backend and a DRAM budget -- on one input and flatten
the outcome into a plain dictionary row that the reporting module (and
pytest-benchmark's ``extra_info``) can consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pmem.device import PersistentMemoryDevice
from repro.shard.collection import ShardSet


@dataclass
class Environment:
    """A simulated device plus one persistence backend on top of it."""

    device: PersistentMemoryDevice
    backend: object
    backend_name: str


def make_environment(backend_name: str = "blocked_memory", **options) -> Environment:
    """A one-device environment with the named backend.

    ``options`` are :meth:`ShardSet.create`'s: ``read_ns``, ``write_ns``
    and ``block_bytes`` (the paper's values by default) and the backend's
    own options.
    """
    (backend,) = ShardSet.create(1, backend_name, **options).backends
    return Environment(
        device=backend.device, backend=backend, backend_name=backend_name
    )


# --------------------------------------------------------------------- #
# Single-run drivers.
# --------------------------------------------------------------------- #
def run_sort(algorithm, collection, label: str = "") -> dict:
    """Run one configured sort and flatten its outcome into a result row.

    The sort drops its own runs; its output's store is dropped once the
    row is recorded, so the next point of a sweep starts from the same
    backend state and repeats exactly.
    """
    result = algorithm.sort(collection)
    row = {
        "algorithm": label or algorithm.short_name,
        "backend": algorithm.backend.name,
        "input_records": len(collection),
        "memory_bytes": algorithm.budget.nbytes,
        "memory_fraction": algorithm.budget.nbytes / max(collection.nbytes, 1),
        "simulated_seconds": result.simulated_seconds,
        "cacheline_reads": result.cacheline_reads,
        "cacheline_writes": result.cacheline_writes,
        "runs_generated": result.runs_generated,
        "merge_passes": result.merge_passes,
        "input_scans": result.input_scans,
        "sorted": result.output.is_sorted(),
        "output_records": len(result.output.records),
    }
    result.output.drop()
    return row


def run_join(algorithm, left, right, label: str = "") -> dict:
    """Run one configured join and flatten its outcome into a result row."""
    result = algorithm.join(left, right)
    return {
        "algorithm": label or algorithm.short_name,
        "backend": algorithm.backend.name,
        "left_records": len(left),
        "right_records": len(right),
        "memory_bytes": algorithm.budget.nbytes,
        "memory_fraction": algorithm.budget.nbytes / max(left.nbytes, 1),
        "simulated_seconds": result.simulated_seconds,
        "cacheline_reads": result.cacheline_reads,
        "cacheline_writes": result.cacheline_writes,
        "partitions": result.partitions,
        "iterations": result.iterations,
        "matches": result.matches,
    }
