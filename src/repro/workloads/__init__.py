"""Synthetic workload generators (Wisconsin-benchmark style)."""

from repro.workloads.wisconsin import wisconsin_permutation
from repro.workloads.generator import (
    load_collection,
    make_join_inputs,
    make_sort_input,
)

__all__ = [
    "wisconsin_permutation",
    "load_collection",
    "make_sort_input",
    "make_join_inputs",
]
