"""DRAM memory budgeting.

The paper's algorithms are parametrized on a DRAM budget of M buffers
(cachelines).  :class:`MemoryBudget` captures that budget and converts it
between the units the code needs (bytes, cachelines, records, merge
fan-in), and :class:`Bufferpool` enforces it: operators reserve workspace
and a reservation beyond the budget raises.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import BufferpoolExhaustedError, ConfigurationError
from repro.pmem.device import DEFAULT_CACHELINE_BYTES, DEFAULT_BLOCK_BYTES
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


@dataclass(frozen=True)
class MemoryBudget:
    """A DRAM budget expressed in bytes, convertible to algorithm units.

    Attributes:
        nbytes: budget size in bytes.
        cacheline_bytes: cacheline size used for the ``buffers`` conversion
            (the paper's M is measured in cachelines).
        block_bytes: block size used for merge fan-in computations.
    """

    nbytes: int
    cacheline_bytes: int = DEFAULT_CACHELINE_BYTES
    block_bytes: int = DEFAULT_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ConfigurationError("memory budget must be positive")
        if self.cacheline_bytes <= 0 or self.block_bytes <= 0:
            raise ConfigurationError("cacheline/block sizes must be positive")

    # ------------------------------------------------------------------ #
    # Constructors.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls, num_records: int, schema: Schema = WISCONSIN_SCHEMA, **kwargs
    ) -> "MemoryBudget":
        """A budget that holds exactly ``num_records`` records of ``schema``."""
        if num_records <= 0:
            raise ConfigurationError("record budget must be positive")
        return cls(nbytes=num_records * schema.record_bytes, **kwargs)

    @classmethod
    def fraction_of(cls, collection, fraction: float) -> "MemoryBudget":
        """A budget equal to a fraction of a collection's size.

        The paper's sweeps express memory as 1-15 % of the input size; this
        constructor reproduces that parametrization.  The budget holds at
        least 4 records, so tiny test inputs get no degenerate budget.  A
        fraction above 1 would build a budget *larger* than the input,
        which no paper sweep intends, and is rejected.
        """
        if not 0 < fraction:
            raise ConfigurationError("fraction must be positive")
        if fraction > 1:
            raise ConfigurationError(f"fraction {fraction} exceeds the input size")
        nbytes = max(
            int(collection.nbytes * fraction),
            4 * collection.schema.record_bytes,
        )
        return cls(nbytes=nbytes)

    # ------------------------------------------------------------------ #
    # Conversions.
    # ------------------------------------------------------------------ #
    @property
    def buffers(self) -> float:
        """The budget in cachelines: the paper's M."""
        return self.nbytes / self.cacheline_bytes

    @property
    def blocks(self) -> int:
        """Whole blocks that fit in the budget (at least one)."""
        return max(1, self.nbytes // self.block_bytes)

    def record_capacity(self, schema: Schema = WISCONSIN_SCHEMA) -> int:
        """Whole records of ``schema`` that fit in the budget (at least one)."""
        return max(1, self.nbytes // schema.record_bytes)

    def merge_fan_in(self) -> int:
        """Maximum number of runs that can be merged in one pass.

        The paper keeps at most M runs open during merging, with M counted
        in buffers (cachelines); one buffer is reserved for the output
        frontier.  Never below two.
        """
        return max(2, int(self.buffers) - 1)


class Bufferpool:
    """Tracks DRAM reservations against a :class:`MemoryBudget`.

    The pool is advisory in the sense that algorithms size their own
    workspaces from the budget, but every workspace is registered here so
    that a mis-sized algorithm fails loudly instead of silently using more
    DRAM than the experiment intended.

    Pools are thread-safe (a client thread carves admitted shares while
    the session's worker reserves and releases) and can be carved into child *shares* via
    :meth:`share`: a child pool's full budget is reserved in its parent up
    front, so concurrent consumers of sibling shares can never jointly
    exceed the parent budget -- over-partitioning fails at ``share()``
    time with :class:`BufferpoolExhaustedError` instead of silently
    over-provisioning DRAM.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        parent: "Bufferpool | None" = None,
        owner: str | None = None,
    ) -> None:
        self.budget = budget
        self.parent = parent
        self.owner = owner
        self._reserved: dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False

    @property
    def reserved_bytes(self) -> int:
        with self._lock:
            return sum(self._reserved.values())

    @property
    def available_bytes(self) -> int:
        return self.budget.nbytes - self.reserved_bytes

    def holders(self) -> dict[str, int]:
        """A copy of the current per-owner reservations (bytes)."""
        with self._lock:
            return dict(self._reserved)

    def reserve(self, nbytes: int, owner: str) -> None:
        """Reserve ``nbytes`` for ``owner``; raises when over budget."""
        if nbytes < 0:
            raise ConfigurationError("reservation must be non-negative")
        with self._lock:
            if self._closed:
                label = (
                    f"bufferpool share {self.owner!r}"
                    if self.owner is not None
                    else "bufferpool"
                )
                raise ConfigurationError(f"{label} is closed")
            available = self.budget.nbytes - sum(self._reserved.values())
            if nbytes > available:
                held = ", ".join(
                    f"{name}={amount}"
                    for name, amount in sorted(self._reserved.items())
                )
                breakdown = f"; held by: {held}" if held else ""
                raise BufferpoolExhaustedError(
                    f"{owner!r} requested {nbytes} bytes but only "
                    f"{available} of {self.budget.nbytes} are available"
                    f"{breakdown}"
                )
            self._reserved[owner] = self._reserved.get(owner, 0) + nbytes

    def release(self, owner: str, nbytes: int | None = None) -> None:
        """Release ``nbytes`` held by ``owner`` (everything when omitted).

        Reserve/release pair exact amounts so that nested or repeated
        reservations under the same owner stay balanced: releasing an inner
        workspace must not drop the bytes of an outer one.
        """
        with self._lock:
            held = self._reserved.get(owner)
            if held is None:
                return
            if nbytes is None:
                nbytes = held
            if nbytes < 0:
                raise ConfigurationError("release must be non-negative")
            if nbytes > held:
                raise ConfigurationError(
                    f"{owner!r} released {nbytes} bytes but holds only {held}"
                )
            remaining = held - nbytes
            if remaining:
                self._reserved[owner] = remaining
            else:
                del self._reserved[owner]

    # ------------------------------------------------------------------ #
    # Parent/child shares.
    # ------------------------------------------------------------------ #
    def share(self, nbytes: int, owner: str = "share") -> "Bufferpool":
        """Carve a child pool of ``nbytes`` out of this one, reserving its
        budget here.

        The child's whole budget is reserved in the parent immediately, so
        the sum of live shares can never exceed the parent budget; a share
        that would raises :class:`BufferpoolExhaustedError`.  Call
        :meth:`close` on the child (or use it as a context manager) to
        return the bytes.
        """
        if nbytes <= 0:
            raise ConfigurationError("share size must be positive")
        self.reserve(nbytes, owner)
        child_budget = MemoryBudget(
            nbytes,
            cacheline_bytes=self.budget.cacheline_bytes,
            block_bytes=self.budget.block_bytes,
        )
        return Bufferpool(child_budget, parent=self, owner=owner)

    def close(self) -> None:
        """Release a share's budget back to its parent (idempotent).

        Closing with outstanding reservations raises: a fragment that
        leaks workspace must fail loudly, not silently return DRAM that
        an operator still believes it holds.
        """
        with self._lock:
            if self._closed:
                return
            if self._reserved:
                holders = ", ".join(sorted(self._reserved))
                raise ConfigurationError(
                    f"cannot close share {self.owner!r}: outstanding "
                    f"reservations by {holders}"
                )
            self._closed = True
        if self.parent is not None:
            self.parent.release(self.owner, self.budget.nbytes)

    def __enter__(self) -> "Bufferpool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @contextmanager
    def workspace(self, nbytes: int, owner: str):
        """Reserve-and-release context manager for an operator workspace.

        Releases exactly the bytes it reserved, so same-owner workspaces
        nest without the inner block freeing the outer reservation.
        """
        self.reserve(nbytes, owner)
        try:
            yield
        finally:
            self.release(owner, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Bufferpool(reserved={self.reserved_bytes}, "
            f"budget={self.budget.nbytes})"
        )
