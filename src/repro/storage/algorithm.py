"""The run contract shared by every sort, join and aggregation.

Each algorithm is built over a persistence backend and a DRAM budget, and
each run consumes one or two persistent collections and writes one output
collection.  :meth:`Algorithm._run` is that contract: it reserves the
budget as the run's workspace, creates the output, answers a settled empty
input with the sealed empty output, and sets the result's device I/O
delta.  Subclasses implement :meth:`Algorithm._execute`, which extends the
output it is handed and seals it.

A run owns its scratch: every run, partition, spill and intermediate it
writes is adopted by :attr:`Algorithm.scratch` where it is created (most
through :meth:`Algorithm._scratch_collection`), and dropped when the run
ends, whether it succeeds or fails; the output is dropped too when
``_execute`` raises.
"""

from __future__ import annotations

import abc

from repro.pmem.backends.base import PersistenceBackend
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import (
    CollectionStatus,
    PersistentCollection,
    StoreOwner,
)


class Algorithm(abc.ABC):
    """Base class of the sort, join and aggregation families.

    Args:
        backend: persistence backend hosting the algorithm's intermediates
            and (optionally) its output.
        budget: DRAM budget; bounds every in-memory workspace of a run.
        materialize_output: write the output to persistent memory (the
            default, matching the paper's experiments) or keep it in DRAM,
            as if pipelined to a consumer operator.
        bufferpool: pool a run reserves its DRAM workspace in, so the
            budget is enforced rather than advisory.  A private pool over
            ``budget`` is used when omitted; the query executor passes its
            shared pool here.

    A family sets ``result_type``, ``output_schema`` and
    :meth:`_output_name`.
    """

    #: Abbreviation used in the paper's figures (e.g. ``ExMS``).
    short_name: str = "algorithm"
    #: Whether the algorithm is one of the paper's write-limited proposals.
    write_limited: bool = False
    #: The family's result dataclass: ``result_type(output=..., io=None)``.
    result_type: type

    def __init__(
        self,
        backend: PersistenceBackend,
        budget: MemoryBudget,
        materialize_output: bool = True,
        bufferpool: Bufferpool | None = None,
    ) -> None:
        self.backend = backend
        self.budget = budget
        self.materialize_output = materialize_output
        self.bufferpool = bufferpool if bufferpool is not None else Bufferpool(budget)
        #: The scratch stores of the current run.
        self.scratch = StoreOwner()

    def _run(self, *inputs: PersistentCollection):
        """Run the algorithm over ``inputs`` and return its result."""
        device = self.backend.device
        before = device.snapshot()
        with self.bufferpool.workspace(self.budget.nbytes, owner=self.short_name):
            output = PersistentCollection(
                name=self._output_name(*(source.name for source in inputs)),
                backend=self.backend if self.materialize_output else None,
                schema=self.output_schema,
                status=(
                    CollectionStatus.MATERIALIZED
                    if self.materialize_output
                    else CollectionStatus.MEMORY
                ),
            )
            # The one emptiness gate: only a settled input's length is
            # known up front; a deferred input runs and its scan decides.
            if any(not source.is_deferred and len(source) == 0 for source in inputs):
                output.seal()
                result = self.result_type(output=output, io=None)
            else:
                try:
                    result = self._execute(output, *inputs)
                except BaseException:
                    self.scratch.adopt(output)
                    raise
                finally:
                    self.scratch.release()
        result.io = device.snapshot() - before
        return result

    @abc.abstractmethod
    def _execute(self, output: PersistentCollection, *inputs: PersistentCollection):
        """Extend and seal ``output``; :meth:`_run` handles the rest."""

    def _scratch_collection(self, name: str, schema) -> PersistentCollection:
        """A materialized scratch collection owned by the current run."""
        return self.scratch.adopt(
            PersistentCollection(
                name=name,
                backend=self.backend,
                schema=schema,
                status=CollectionStatus.MATERIALIZED,
            )
        )

    @abc.abstractmethod
    def _output_name(self, *input_names: str) -> str:
        """Name of the output collection of a run over the named inputs."""

    def estimated_cost_ns(self, *input_buffers: float) -> float:
        """Analytical Section 2 cost of inputs of ``input_buffers`` cachelines.

        Each sort and join overrides this with its cost expression; the
        default raises so that an un-modelled algorithm cannot silently
        take part in cost-based ranking.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a cost model"
        )

    @property
    def memory_buffers(self) -> float:
        """The DRAM budget in cachelines: the paper's M."""
        return self.budget.buffers
