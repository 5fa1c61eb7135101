"""Descriptors of the four runtime API calls.

The paper's API (Section 3.1) consists of:

* ``split(T, n, Tl, Th)`` -- split collection T at position n;
* ``partition(T, h(), k, <Ti>, <si>)`` -- hash-partition T into k parts
  with expected sizes si (|T|/k when omitted);
* ``filter(T, p(), f, Tp)`` -- filter T with predicate p() and expected
  selectivity f;
* ``merge(Tl, Tr, m(), T)`` -- merge two collections with function m().

Each call is recorded as a node of the control-flow graph; the
descriptors below carry the call-specific parameters the runtime needs to
re-derive deferred outputs and to estimate their sizes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError


class CallKind(enum.Enum):
    """The four primitives of the runtime API."""

    SPLIT = "split"
    PARTITION = "partition"
    FILTER = "filter"
    MERGE = "merge"


@dataclass(frozen=True)
class SplitCall:
    """``split(T, n, Tl, Th)``: cut T at record position ``position``."""

    position: int

    kind: CallKind = field(default=CallKind.SPLIT, init=False)

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ConfigurationError("split position must be non-negative")

    def output_slice(self, output_index: int) -> tuple[int, int | None]:
        """(start, stop) of the source slice feeding the given output."""
        if output_index == 0:
            return 0, self.position
        if output_index == 1:
            return self.position, None
        raise ConfigurationError("split produces exactly two outputs")


@dataclass(frozen=True)
class PartitionCall:
    """``partition(T, h(), k, <Ti>, <si>)``: hash-partition T into k parts."""

    partition_fn: Callable[[tuple], int]
    num_partitions: int
    expected_sizes: tuple[int, ...] | None = None

    kind: CallKind = field(default=CallKind.PARTITION, init=False)

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ConfigurationError("number of partitions must be positive")
        if self.expected_sizes is not None and len(self.expected_sizes) != self.num_partitions:
            raise ConfigurationError(
                "expected_sizes must have one entry per partition"
            )

    def expected_size(self, output_index: int, source_records: int) -> int:
        """Expected cardinality of one partition."""
        if self.expected_sizes is not None:
            return self.expected_sizes[output_index]
        return source_records // self.num_partitions


@dataclass(frozen=True)
class FilterCall:
    """``filter(T, p(), f, Tp)``: keep records satisfying the predicate."""

    predicate: Callable[[tuple], bool]
    selectivity: float = 1.0

    kind: CallKind = field(default=CallKind.FILTER, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise ConfigurationError("selectivity must lie in [0, 1]")

    def expected_size(self, source_records: int) -> int:
        return int(source_records * self.selectivity)


@dataclass(frozen=True)
class MergeCall:
    """``merge(Tl, Tr, m(), T)``: combine two collections with ``merge_fn``.

    ``merge_fn`` receives the two input collections and the output
    collection, mirroring the functor of the paper's Listing 2.
    """

    merge_fn: Callable

    kind: CallKind = field(default=CallKind.MERGE, init=False)
