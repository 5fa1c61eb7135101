"""Common scaffolding for the sorting algorithms.

Every sort follows the same contract: it is constructed with a persistence
backend and a DRAM budget, and :meth:`SortAlgorithm.sort` consumes one
persistent collection and returns a :class:`SortResult` containing the
sorted output collection plus the I/O the run cost on the simulated
device.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, InsufficientMemoryError
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.metrics import IOResult, IOSnapshot
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import CollectionStatus, PersistentCollection
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


class SortAlgorithm(abc.ABC):
    """Base class for all sorting algorithms.

    Args:
        backend: persistence backend hosting runs, intermediates and
            (optionally) the output.
        budget: DRAM budget; its record capacity bounds every in-memory
            workspace the algorithm uses.
        schema: record schema of the input.
        materialize_output: when true (the default, matching the paper's
            experiments) the sorted output is written to persistent memory;
            when false the output collection is an in-memory one, as if
            pipelined to a consumer operator.
        output_name: name of the output collection; auto-derived otherwise.
        bufferpool: pool the sort registers its DRAM workspace with while
            running, so the budget is enforced rather than advisory.  A
            private pool over ``budget`` is used when omitted; the query
            executor passes its shared pool here.
    """

    #: Abbreviation used in the paper's figures (e.g. ``ExMS``).
    short_name: str = "sort"
    #: Whether the algorithm is one of the paper's write-limited proposals.
    write_limited: bool = False

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        schema: Schema = WISCONSIN_SCHEMA,
        materialize_output: bool = True,
        output_name: str | None = None,
        bufferpool: Bufferpool | None = None,
    ) -> None:
        self.backend = backend
        self.budget = budget
        self.schema = schema
        self.materialize_output = materialize_output
        self.output_name = output_name
        self.bufferpool = bufferpool if bufferpool is not None else Bufferpool(budget)
        #: The sort key extractor, bound once: the kernels call it per record.
        self.key_fn = operator.itemgetter(schema.key_index)
        self.workspace_records = budget.record_capacity(schema)
        if self.workspace_records < 1:
            raise InsufficientMemoryError(
                f"{self.short_name}: budget of {budget.nbytes} bytes holds no records"
            )

    # ------------------------------------------------------------------ #
    # Public API.
    # ------------------------------------------------------------------ #
    def sort(self, collection: PersistentCollection) -> SortResult:
        """Sort ``collection`` and return the result with its I/O delta."""
        if collection.schema.record_bytes != self.schema.record_bytes:
            raise ConfigurationError(
                f"{self.short_name}: input schema does not match the algorithm schema"
            )
        device = self.backend.device
        before = device.snapshot()
        with self.bufferpool.workspace(self.budget.nbytes, owner=self.short_name):
            # The one emptiness gate: only a settled input's length is
            # known up front; a deferred input runs and its scan decides.
            if not collection.is_deferred and len(collection) == 0:
                output = self._make_output(collection.name)
                output.seal()
                result = SortResult(output=output, io=None)
            else:
                result = self._execute(collection)
        result.io = device.snapshot() - before
        return result

    def estimated_cost_ns(self, input_buffers: float) -> float:
        """Analytical cost estimate for an input of ``input_buffers`` cachelines.

        Subclasses override this with the corresponding Section 2.1 cost
        expression; the default raises so that accidentally un-modelled
        algorithms cannot silently participate in cost-based ranking.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a cost model"
        )

    # ------------------------------------------------------------------ #
    # Helpers for subclasses.
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _execute(self, collection: PersistentCollection) -> SortResult:
        """Run the algorithm; the caller handles I/O snapshotting."""

    def _make_output(self, input_name: str) -> PersistentCollection:
        name = self.output_name or f"{input_name}-sorted-{self.short_name.lower()}"
        if self.materialize_output:
            return PersistentCollection(
                name=name,
                backend=self.backend,
                schema=self.schema,
                status=CollectionStatus.MATERIALIZED,
            )
        return PersistentCollection(
            name=name,
            backend=None,
            schema=self.schema,
            status=CollectionStatus.MEMORY,
        )

    @property
    def memory_buffers(self) -> float:
        """The DRAM budget in cachelines: the paper's M."""
        return self.budget.buffers

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(workspace_records={self.workspace_records}, "
            f"backend={self.backend.name})"
        )
