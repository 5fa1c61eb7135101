"""Sorting algorithms of Section 2.1 and their cost models."""

from repro.sorts.base import SortAlgorithm, SortResult
from repro.sorts.external_mergesort import ExternalMergeSort
from repro.sorts.selection_sort import SelectionSort
from repro.sorts.segment_sort import SegmentSort
from repro.sorts.hybrid_sort import HybridSort
from repro.sorts.lazy_sort import LazySort
from repro.sorts import cost

__all__ = [
    "SortAlgorithm",
    "SortResult",
    "ExternalMergeSort",
    "SelectionSort",
    "SegmentSort",
    "HybridSort",
    "LazySort",
    "cost",
]
