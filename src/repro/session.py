"""The top-level Session facade: a concurrent workload front door.

A :class:`Session` owns the pieces that used to be wired up by hand at
every call site -- the persistence backend (or
:class:`~repro.shard.collection.ShardSet`), the DRAM
:class:`~repro.storage.bufferpool.MemoryBudget` and the shared
:class:`~repro.storage.bufferpool.Bufferpool` -- plus the
:mod:`~repro.workload_mgmt` machinery that lets many queries share them
safely::

    from repro import MemoryBudget, Query, Session

    with Session(backend, MemoryBudget.from_records(64)) as session:
        handle = session.submit(          # non-blocking
            Query.scan(orders).filter(pred, selectivity=0.5),
            tag="orders-filter",
        )
        other = session.submit(Query.scan(items).order_by(), tag="sort")
        print(handle.status)              # queued / running / done / ...
        result = handle.result()          # block for this one query
        report = session.run_workload(    # submit a batch, wait for all
            [q1, q2, q3], policy="queue"
        )
        print(report.explain())           # queue-wait vs. run ns per query

Every submitted query is planned, then *admitted* before it runs: the
admission controller carves it a child ``Bufferpool.share()`` sized
from the planner's memory estimate, so concurrently running queries can
never jointly exceed the session budget.  When the pool is exhausted
the admission policy decides -- ``queue`` (wait, first come first
admitted), ``shed`` (reject with
:class:`~repro.exceptions.AdmissionRejectedError`) or ``degrade``
(replan under a smaller budget slice).  ``submit`` and ``run_workload``
take the same path: ``run_workload`` builds and validates every handle,
then the scheduler plans the whole batch, admits each member and starts
the admitted ones, so a member is never admitted and left waiting to
start.  Every admitted query runs whole on the session's one serial
worker thread, in start order, so no two threads ever touch a device at
once.

:meth:`Session.query` remains as sugar over ``submit(...).result()``:
it requests the whole session budget (the single-query behavior of
earlier revisions) and sheds instead of waiting, so exceeding the budget
still raises.

Every query takes one path: the session's devices form a
:class:`~repro.shard.collection.ShardSet` (a single device is a
one-shard set), the :class:`~repro.shard.planner.ShardedPlanner` plans
every query, and the :class:`~repro.shard.executor.ShardedQueryExecutor`
runs it and returns a :class:`~repro.shard.executor.QueryResult`.  A
query over plain collections on a sharded session is placed on the one
shard backend that holds them.

Data reaches a session's devices through one builder,
:func:`~repro.workloads.generator.load_collection`, which follows the
session's own rule: a backend target gets a plain collection, a
:class:`~repro.shard.collection.ShardSet` a sharded one.
:meth:`Session.create_collection` is its single-backend form.
"""

from __future__ import annotations

import threading
import warnings
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.device import PersistentMemoryDevice
from repro.query.physical import BOUNDARY_POLICIES
from repro.shard.collection import ShardSet
from repro.shard.executor import QueryResult
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.workload_mgmt.admission import ADMISSION_POLICIES
from repro.workload_mgmt.calibration import CalibrationAggregator
from repro.workload_mgmt.handle import QueryHandle
from repro.workload_mgmt.result import WorkloadResult
from repro.workload_mgmt.scheduler import WorkloadScheduler
from repro.workloads.generator import load_collection


class Session:
    """A query session over one backend or a shard set.

    Args:
        target: where the data lives -- a
            :class:`~repro.pmem.backends.base.PersistenceBackend` (a
            one-shard set) or a :class:`ShardSet`.
        budget: DRAM budget shared by every query.  The session owns the
            one :attr:`bufferpool` over it.
        materialize_result: write every query's final output to the
            persistent device instead of leaving it in DRAM.
        boundary_policy: default boundary placement for planned queries
            (``"cost"``, ``"materialize"``, ``"pipeline"`` or
            ``"defer"``).

    Sessions are context managers: :meth:`close` drains in-flight
    queries, releases the session bufferpool, and warns about leaked
    reservations or unclosed shares.
    """

    def __init__(
        self,
        target,
        budget: MemoryBudget,
        *,
        materialize_result: bool = False,
        boundary_policy: str = "cost",
    ) -> None:
        if boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigurationError(
                f"unknown boundary policy {boundary_policy!r}; expected one "
                f"of {', '.join(BOUNDARY_POLICIES)}"
            )
        if isinstance(target, ShardSet):
            self.shard_set = target
        elif isinstance(target, PersistenceBackend):
            self.shard_set = ShardSet([target])
        else:
            raise ConfigurationError(
                f"cannot build a Session over {type(target).__name__}; "
                "expected a PersistenceBackend or ShardSet"
            )
        self.budget = budget
        self.bufferpool = Bufferpool(self.budget)
        self.materialize_result = materialize_result
        self.boundary_policy = boundary_policy
        self.calibration = CalibrationAggregator()
        self._scheduler: Optional[WorkloadScheduler] = None
        self._scheduler_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def is_sharded(self) -> bool:
        return self.shard_set.num_shards > 1

    @property
    def backend(self) -> Optional[PersistenceBackend]:
        """The backend of a single-device session (``None`` when sharded)."""
        return None if self.is_sharded else self.shard_set.backends[0]

    @property
    def devices(self) -> list[PersistentMemoryDevice]:
        """Every simulated device the session can touch, in shard order."""
        return self.shard_set.devices

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drain in-flight queries and release the session bufferpool.

        Queued (not yet admitted) queries are cancelled; every admitted
        one -- running, or admitted with its batch and not yet started --
        is waited for.  Leaked reservations or unclosed shares left behind
        in the session's pool indicate a bug in whoever carved them: they
        are force-released with a :class:`ResourceWarning` naming the
        owners (so the leak fails loudly without masking an in-flight
        exception) and the pool is closed.  Idempotent; further queries
        raise :class:`ConfigurationError`.
        """
        if self._closed:
            return
        self._closed = True
        with self._scheduler_lock:
            scheduler = self._scheduler
        if scheduler is not None:
            scheduler.shutdown(wait=True)
        leaked = self.bufferpool.holders()
        if leaked:
            holders = ", ".join(
                f"{owner}={nbytes}B" for owner, nbytes in sorted(leaked.items())
            )
            warnings.warn(
                f"Session closed with leaked bufferpool reservations "
                f"({holders}); releasing them",
                ResourceWarning,
                stacklevel=2,
            )
            for owner in leaked:
                self.bufferpool.release(owner)
        self.bufferpool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this session is closed")

    @property
    def scheduler(self) -> WorkloadScheduler:
        """The session's workload scheduler (created on first use)."""
        self._check_open()
        with self._scheduler_lock:
            if self._scheduler is None:
                self._scheduler = WorkloadScheduler(
                    self.bufferpool,
                    self.budget,
                    self.shard_set,
                    self.calibration,
                )
            return self._scheduler

    # ------------------------------------------------------------------ #
    # Data helpers.
    # ------------------------------------------------------------------ #
    def create_collection(self, name: str, records) -> PersistentCollection:
        """A sealed collection of ``records`` (Wisconsin schema) on the
        session's backend.

        On a sharded session, spread data across the shard set with
        :func:`~repro.workloads.generator.load_collection` over the
        session's ``shard_set``.
        """
        if self.is_sharded:
            raise ConfigurationError(
                "create_collection targets a single backend; load a "
                "ShardedCollection onto the session's shard_set with "
                "load_collection instead"
            )
        return load_collection(records, self.backend, name)

    # ------------------------------------------------------------------ #
    # The workload API.
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query,
        *,
        tag: Optional[str] = None,
        policy: str = "queue",
        boundary_policy: str | None = None,
        memory_bytes: Optional[int] = None,
    ) -> QueryHandle:
        """Submit a query for admission and execution; returns at once.

        ``query`` is a :class:`~repro.query.logical.Query` or a bare
        logical node.  The admission controller sizes the query's DRAM
        share from the planner's memory estimate (or ``memory_bytes``
        when given), carves it out of the session pool, and applies
        ``policy`` (one of :data:`ADMISSION_POLICIES`) if the pool is
        exhausted.  The returned
        :class:`~repro.workload_mgmt.handle.QueryHandle` exposes
        ``status``, blocking ``result()``, and ``cancel()``.
        """
        handle = self._handle(
            query, tag=tag, boundary_policy=boundary_policy, memory_bytes=memory_bytes
        )
        return self.scheduler.submit(handle, policy=policy)

    def run_workload(self, queries, *, policy: str = "queue") -> WorkloadResult:
        """Submit a batch of queries, wait for all, report the workload.

        ``queries`` is an iterable whose items are queries (``Query`` /
        logical node) or per-query option mappings like
        ``{"query": q, "tag": "hot", "memory_bytes": 20_000}`` (every
        :meth:`submit` keyword but ``policy`` is accepted).  Every item is
        validated and planned before any is admitted, so a bad item
        admits nothing; and admission decisions for the whole batch are
        made before any query starts, so a ``shed`` policy rejects the
        same overflow every run, deterministically.

        The returned :class:`WorkloadResult` carries every handle plus
        the workload critical path -- the busiest device's simulated time
        over the run, i.e. the co-scheduled makespan.
        """
        items = [self._normalize_workload_item(item) for item in queries]
        if not items:
            raise ConfigurationError("run_workload needs at least one query")
        handles = [self._handle(query, **options) for query, options in items]
        scheduler = self.scheduler
        busy_before = scheduler.device_busy_ns()
        scheduler.submit_all(handles, policy=policy)
        for handle in handles:
            handle.wait()
        busy = [
            after - before
            for after, before in zip(scheduler.device_busy_ns(), busy_before)
        ]
        return WorkloadResult(
            handles=handles,
            policy=policy,
            critical_path_ns=max(busy, default=0.0),
        )

    def _handle(
        self,
        query,
        *,
        tag: Optional[str] = None,
        boundary_policy: str | None = None,
        memory_bytes: Optional[int] = None,
    ) -> QueryHandle:
        """A validated handle for ``query``, with the session defaults
        filled in."""
        if memory_bytes is not None and memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        handle = QueryHandle(query, tag=tag, seq=self.scheduler.next_seq())
        handle._boundary_policy = boundary_policy or self.boundary_policy
        handle._materialize_result = self.materialize_result
        handle._memory_bytes = memory_bytes
        return handle

    @staticmethod
    def _normalize_workload_item(item):
        if not isinstance(item, dict):
            return item, {}
        options = dict(item)
        try:
            query = options.pop("query")
        except KeyError:
            raise ConfigurationError(
                "a workload item mapping needs a 'query' key"
            ) from None
        return query, options

    def query(self, query, *, boundary_policy: str | None = None) -> QueryResult:
        """Plan, execute, and wait for one query.

        Sugar over ``submit(...).result()``: the query requests the whole
        session budget (so plans match the single-query behavior) and is
        shed rather than queued when the pool cannot fit it -- exceeding
        the budget raises, as it always did.
        """
        handle = self.submit(
            query,
            boundary_policy=boundary_policy,
            policy="shed",
            memory_bytes=self.budget.nbytes,
        )
        return handle.result()

    # ------------------------------------------------------------------ #
    # Calibration.
    # ------------------------------------------------------------------ #
    def calibration_report(self) -> str:
        """Estimated vs. actual weighted cachelines per operator.

        Aggregates every query the session has run (through
        :meth:`query`, :meth:`submit` or :meth:`run_workload`) into a
        per-operator table of estimated and measured weighted-cacheline
        I/O and their ratio -- the correction factors the planner's
        Section 2 models would need per operator.
        """
        return self.calibration.report()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        target = (
            f"shards={self.shard_set.num_shards}"
            if self.is_sharded
            else f"backend={self.backend.name!r}"
        )
        return (
            f"Session({target}, budget={self.budget.nbytes}B, "
            f"boundary_policy={self.boundary_policy!r})"
        )


#: Re-exported for discoverability next to the Session front door.
__all__ = [
    "Session",
    "QueryHandle",
    "WorkloadResult",
    "ADMISSION_POLICIES",
]
