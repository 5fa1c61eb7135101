"""Generic plumbing for the experiments.

An :class:`Environment` bundles the simulated device and a persistence
backend; :func:`run_sort` / :func:`run_join` execute one algorithm on one
input and flatten the outcome into a plain dictionary row that the
reporting module (and pytest-benchmark's ``extra_info``) can consume
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.joins import (
    GraceJoin,
    HybridGraceNestedLoopsJoin,
    LazyHashJoin,
    NestedLoopsJoin,
    SegmentedGraceJoin,
    SimpleHashJoin,
)
from repro.pmem.backends import make_backend
from repro.pmem.device import DeviceGeometry, PersistentMemoryDevice
from repro.pmem.latency import LatencyModel
from repro.sorts import (
    ExternalMergeSort,
    HybridSort,
    LazySort,
    SegmentSort,
)
from repro.storage.bufferpool import MemoryBudget


@dataclass
class Environment:
    """A simulated device plus one persistence backend on top of it."""

    device: PersistentMemoryDevice
    backend: object
    backend_name: str

    def reset(self) -> None:
        self.device.reset_counters()


def make_environment(
    backend_name: str = "blocked_memory",
    read_ns: float = 10.0,
    write_ns: float = 150.0,
    cacheline_bytes: int = 64,
    block_bytes: int = 1024,
    **backend_kwargs,
) -> Environment:
    """Create a device with the paper's latencies and the named backend."""
    device = PersistentMemoryDevice(
        latency=LatencyModel(read_ns=read_ns, write_ns=write_ns),
        geometry=DeviceGeometry(
            cacheline_bytes=cacheline_bytes, block_bytes=block_bytes
        ),
    )
    backend = make_backend(backend_name, device, **backend_kwargs)
    return Environment(device=device, backend=backend, backend_name=backend_name)


def budget_for(collection, fraction: float) -> MemoryBudget:
    """A DRAM budget equal to ``fraction`` of the collection's size."""
    return MemoryBudget.fraction_of(collection, fraction)


# --------------------------------------------------------------------- #
# Algorithm suites (the line-ups of the paper's figures).
# --------------------------------------------------------------------- #
def sort_algorithm_suite():
    """Figure 5 line-up: factories keyed by display label, HybS and SegS
    at write intensities of 20 and 80 %.

    Each factory takes ``(backend, budget)`` and returns a configured sort.
    """
    suite = {
        "ExMS": lambda backend, budget: ExternalMergeSort(backend, budget),
        "LaS": lambda backend, budget: LazySort(backend, budget),
    }
    for intensity in (0.2, 0.8):
        label = f"{int(round(intensity * 100))}%"
        suite[f"HybS, {label}"] = (
            lambda backend, budget, i=intensity: HybridSort(
                backend, budget, write_intensity=i
            )
        )
        suite[f"SegS, {label}"] = (
            lambda backend, budget, i=intensity: SegmentSort(
                backend, budget, write_intensity=i
            )
        )
    return suite


def join_algorithm_suite(
    hybrid_intensities=((0.5, 0.5),),
    segmented_intensities=(0.5,),
):
    """Figure 7(a) line-up: factories keyed by display label."""
    suite = {
        "NLJ": lambda backend, budget: NestedLoopsJoin(backend, budget),
        "HJ": lambda backend, budget: SimpleHashJoin(backend, budget),
        "GJ": lambda backend, budget: GraceJoin(backend, budget),
        "LaJ": lambda backend, budget: LazyHashJoin(backend, budget),
    }
    for intensity in segmented_intensities:
        label = f"SegJ, {int(round(intensity * 100))}%"
        suite[label] = (
            lambda backend, budget, i=intensity: SegmentedGraceJoin(
                backend, budget, write_intensity=i
            )
        )
    for left_intensity, right_intensity in hybrid_intensities:
        label = (
            f"HybJ, {int(round(left_intensity * 100))}% - "
            f"{int(round(right_intensity * 100))}%"
        )
        suite[label] = (
            lambda backend, budget, x=left_intensity, y=right_intensity:
            HybridGraceNestedLoopsJoin(
                backend, budget, left_intensity=x, right_intensity=y
            )
        )
    return suite


# --------------------------------------------------------------------- #
# Single-run drivers.
# --------------------------------------------------------------------- #
def run_sort(factory, collection, backend, budget, label: str = "") -> dict:
    """Run one sort and flatten its outcome into a result row.

    The sort drops its own runs; its output's store is dropped once the
    row is recorded, so the next point of a sweep starts from the same
    backend state and repeats exactly.
    """
    algorithm = factory(backend, budget)
    result = algorithm.sort(collection)
    row = {
        "algorithm": label or algorithm.short_name,
        "backend": backend.name,
        "input_records": len(collection),
        "memory_bytes": budget.nbytes,
        "memory_fraction": budget.nbytes / max(collection.nbytes, 1),
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


def run_join(
    factory,
    left,
    right,
    backend,
    budget,
    label: str = "",
    materialize_output: bool = False,
) -> dict:
    """Run one join and flatten its outcome into a result row.

    ``materialize_output`` defaults to False because the paper's join cost
    analysis (Eq. 6 and 9) factors the output term out -- it is identical
    across algorithms and would otherwise dominate the comparison.
    """
    algorithm = factory(backend, budget)
    algorithm.materialize_output = materialize_output
    result = algorithm.join(left, right)
    return {
        "algorithm": label or algorithm.short_name,
        "backend": backend.name,
        "left_records": len(left),
        "right_records": len(right),
        "memory_bytes": budget.nbytes,
        "memory_fraction": budget.nbytes / max(left.nbytes, 1),
        "simulated_seconds": result.simulated_seconds,
        "cacheline_reads": result.cacheline_reads,
        "cacheline_writes": result.cacheline_writes,
        "partitions": result.partitions,
        "iterations": result.iterations,
        "matches": result.matches,
    }
