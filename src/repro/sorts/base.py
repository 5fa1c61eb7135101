"""Common scaffolding for the sorting algorithms.

Every sort follows the run contract of
:class:`~repro.storage.algorithm.Algorithm`: it is constructed with a
persistence backend and a DRAM budget, and :meth:`SortAlgorithm.sort`
consumes one persistent collection and returns a :class:`SortResult`
containing the sorted output collection plus the I/O the run cost on the
simulated device.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, InsufficientMemoryError
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.metrics import IOResult, IOSnapshot
from repro.storage.algorithm import Algorithm
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


@dataclass
class SortResult(IOResult):
    """Outcome of one sort execution."""

    #: The sorted output collection.
    output: PersistentCollection
    #: Device I/O attributable to this execution (delta around the run).
    io: IOSnapshot
    #: Number of intermediate runs the algorithm generated.
    runs_generated: int = 0
    #: Number of merge passes over the data.
    merge_passes: int = 0
    #: Number of full read passes over the (remaining) input.
    input_scans: int = 0
    #: Algorithm-specific extras (e.g. materialization points of lazy sort).
    details: dict = field(default_factory=dict)


class SortAlgorithm(Algorithm):
    """Base class for all sorting algorithms.

    Args:
        backend: persistence backend hosting runs, intermediates and
            (optionally) the output.
        budget: DRAM budget; its record capacity bounds every in-memory
            workspace the algorithm uses.
        schema: record schema of the input.
        materialize_output / bufferpool: see
            :class:`~repro.storage.algorithm.Algorithm`.
    """

    short_name: str = "sort"
    result_type = SortResult

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        schema: Schema = WISCONSIN_SCHEMA,
        materialize_output: bool = True,
        bufferpool: Bufferpool | None = None,
    ) -> None:
        super().__init__(backend, budget, materialize_output, bufferpool)
        self.schema = self.output_schema = schema
        #: The sort key extractor, bound once: the kernels call it per record.
        self.key_fn = operator.itemgetter(schema.key_index)
        self.workspace_records = budget.record_capacity(schema)
        if self.workspace_records < 1:
            raise InsufficientMemoryError(
                f"{self.short_name}: budget of {budget.nbytes} bytes holds no records"
            )

    def sort(self, collection: PersistentCollection) -> SortResult:
        """Sort ``collection`` and return the result with its I/O delta."""
        if collection.schema.record_bytes != self.schema.record_bytes:
            raise ConfigurationError(
                f"{self.short_name}: input schema does not match the algorithm schema"
            )
        return self._run(collection)

    def _output_name(self, input_name: str) -> str:
        return f"{input_name}-sorted-{self.short_name.lower()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(workspace_records={self.workspace_records}, "
            f"backend={self.backend.name})"
        )
