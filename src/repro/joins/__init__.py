"""Join algorithms of Section 2.2 and their cost models."""

from repro.joins.base import JoinAlgorithm, JoinResult
from repro.joins.nested_loops import NestedLoopsJoin
from repro.joins.hash_join import SimpleHashJoin
from repro.joins.grace_join import GraceJoin
from repro.joins.hybrid_join import HybridGraceNestedLoopsJoin
from repro.joins.segmented_grace import SegmentedGraceJoin
from repro.joins.lazy_hash_join import LazyHashJoin
from repro.joins import cost

__all__ = [
    "JoinAlgorithm",
    "JoinResult",
    "NestedLoopsJoin",
    "SimpleHashJoin",
    "GraceJoin",
    "HybridGraceNestedLoopsJoin",
    "SegmentedGraceJoin",
    "LazyHashJoin",
    "cost",
]
