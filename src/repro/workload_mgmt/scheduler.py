"""Concurrent workload scheduling over shared devices.

The scheduler turns the admission controller's decisions into running
queries while preserving the one invariant the simulated accounting
depends on: *at most one thread touches a device at a time*.  Every
admitted query runs whole, as one task, on the session's one serial
worker (:class:`DeviceWorkerPool`), in the order the queries were
started: the task calls the
:class:`~repro.shard.executor.ShardedQueryExecutor` on the query's plan,
under the query's admitted bufferpool share, and the executor runs the
plan's shard tasks one after another on the worker.  Queries therefore
never interleave on a device, and each task's device snapshot delta is
exactly its own I/O.

Every submission takes one path, :meth:`WorkloadScheduler.submit_all`
(``submit`` is its one-handle case): plan every handle, admit each one,
then start the admitted ones.  An admitted handle is running from the
moment its share is carved, and a queued one is started by the release
that admits it, so a handle goes QUEUED → RUNNING → DONE/FAILED, or
QUEUED → CANCELLED/REJECTED, and nothing else.

Simulated time: devices only advance their clocks by doing work, so the
scheduler's *busy clock* — the maximum over devices of simulated busy
nanoseconds since the scheduler started — is the workload's notion of
"now".  A query's ``queue_wait_ns`` is the busy-clock delta between
submission and admission; its ``run_ns`` is its own critical path.
"""

from __future__ import annotations

import threading

from repro.exceptions import ConfigurationError
from repro.shard.collection import ShardSet
from repro.shard.executor import ShardedQueryExecutor
from repro.shard.planner import ShardedPhysicalPlan, ShardedPlanner
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.workload_mgmt.admission import (
    AdmissionController,
    estimate_plan_memory_bytes,
)
from repro.workload_mgmt.calibration import CalibrationAggregator
from repro.workload_mgmt.handle import QueryHandle
from repro.workload_mgmt.workers import DeviceWorkerPool


class WorkloadScheduler:
    """Admits, plans, and co-schedules a session's concurrent queries.

    The scheduler deliberately holds no reference to its ``Session`` (the
    session hands over the pieces), so a dropped session is reclaimed
    promptly and its worker thread exits.

    Args:
        bufferpool: the session pool admitted shares are carved from.
        budget: the session budget (reference plans are priced under it).
        shard_set: the session's devices; one serial worker runs the
            queries on all of them.
        calibration: aggregator fed every completed query's result.
    """

    def __init__(
        self,
        bufferpool: Bufferpool,
        budget: MemoryBudget,
        shard_set: ShardSet,
        calibration: CalibrationAggregator,
    ) -> None:
        self.budget = budget
        self.shard_set = shard_set
        self.devices = shard_set.devices
        self.worker_pool = DeviceWorkerPool(len(self.devices))
        self.controller = AdmissionController(bufferpool)
        self.calibration = calibration
        self._baseline_ns = [device.snapshot().total_ns for device in self.devices]
        self._lock = threading.Lock()
        #: Held while handles are started, so a batch is queued on the
        #: worker whole before any waiter a release admits (see ``_start``).
        self._start_lock = threading.Lock()
        #: Notified whenever ``_running`` becomes empty.
        self._idle = threading.Condition(self._lock)
        self._running: set[QueryHandle] = set()
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission.
    # ------------------------------------------------------------------ #
    def next_seq(self) -> int:
        with self._lock:
            seq = self._seq
            self._seq += 1
            return seq

    def submit(self, handle: QueryHandle, *, policy: str = "queue") -> QueryHandle:
        """Admit (or queue/shed/degrade) one handle; start it if admitted."""
        self.submit_all([handle], policy=policy)
        return handle

    def submit_all(self, handles, policy: str = "queue") -> None:
        """Plan every handle, then admit each, then start the admitted ones.

        Planning touches no device, so a handle that fails to plan fails
        the call before any handle is admitted.  Every admission is decided
        before any handle starts (and could finish, freeing memory), which
        keeps the ``shed`` policy's rejections deterministic.  A handle
        the policy queues is started by the release that admits it.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "the session is closed; no further queries can be submitted"
                )
        clock = self.busy_clock_ns()
        for handle in handles:
            handle._clock_submit = clock
            self._prepare(handle)
        admitted: list[QueryHandle] = []
        try:
            for handle in handles:
                handle._scheduler = self
                if self.controller.try_admit(handle, policy=policy):
                    self._admitted([handle])
                    admitted.append(handle)
        finally:
            self._start(admitted)

    def busy_clock_ns(self) -> float:
        """Simulated 'now': the busiest device's ns since startup."""
        return max(self.device_busy_ns(), default=0.0)

    def device_busy_ns(self) -> list[float]:
        """Per-device simulated busy ns since scheduler startup."""
        return [
            device.snapshot().total_ns - baseline
            for device, baseline in zip(self.devices, self._baseline_ns)
        ]

    # ------------------------------------------------------------------ #
    # Planning.
    # ------------------------------------------------------------------ #
    def _prepare(self, handle: QueryHandle) -> None:
        """Reference-plan the query and size its admission request."""
        if handle._memory_bytes is not None:
            # An explicit request: plan straight under it, so admission
            # at the requested size reuses this plan instead of planning
            # twice.
            requested = self._clamp_request(handle._memory_bytes)
            handle._reference_plan = self._plan(handle, self._budget(requested))
        else:
            handle._reference_plan = self._plan(handle, self.budget)
            requested = self._clamp_request(
                estimate_plan_memory_bytes(handle._reference_plan)
            )
        handle.requested_bytes = requested

    def _clamp_request(self, requested: int) -> int:
        return max(
            min(int(requested), self.budget.nbytes),
            self.controller.floor_bytes,
        )

    def _budget(self, nbytes: int) -> MemoryBudget:
        return MemoryBudget(
            nbytes,
            cacheline_bytes=self.budget.cacheline_bytes,
            block_bytes=self.budget.block_bytes,
        )

    def _plan(self, handle: QueryHandle, budget) -> ShardedPhysicalPlan:
        """Plan the handle's query, place it on the session's devices, and
        apply ``materialize_result``."""
        plan = ShardedPlanner(
            self.shard_set, budget, boundary_policy=handle._boundary_policy
        ).plan(handle.query)
        if handle._materialize_result:
            plan.materialize_root()
        return plan

    def _finalize(self, handle: QueryHandle) -> None:
        """Fix the executable plan for the admitted budget.

        A query admitted under less memory than its reference plan was
        priced with (an explicit smaller request, or the ``degrade``
        policy) is replanned under the admitted budget, so its operators
        size — and reserve — workspace that actually fits the share.
        """
        reference = handle._reference_plan
        if handle.admitted_bytes == reference.budget.nbytes:
            handle._plan = reference
        else:
            handle._plan = self._plan(handle, self._budget(handle.admitted_bytes))

    # ------------------------------------------------------------------ #
    # Start, completion and release.
    # ------------------------------------------------------------------ #
    def _admitted(self, handles) -> None:
        """Stamp newly admitted handles' queue waits and count them as
        running, so shutdown waits for them from admission on.

        The queue wait is the simulated busy ns between submission and
        admission, not start: the members of a batch start one after
        another, and an earlier member's run is no wait of a later one.
        """
        now = self.busy_clock_ns()
        with self._lock:
            for handle in handles:
                handle.queue_wait_ns = max(0.0, now - handle._clock_submit)
                self._running.add(handle)

    def _start(self, handles) -> None:
        """Start admitted handles: fix each one's plan for its admitted
        share and queue it on the worker.  A handle that cannot start
        fails and gives its share back; the waiters that release admits
        are started in turn.

        The client starts a batch while the worker may already be
        finishing its first members, and a release on the worker starts
        the waiters it admits.  Starts hold one lock, so a batch is
        queued whole before any such waiter: the worker's order, and so
        every simulated clock reading, depends on the admissions alone,
        not on thread timing."""
        with self._start_lock:
            pending = list(handles)
            while pending:
                handle = pending.pop(0)
                try:
                    self._finalize(handle)
                    self._dispatch(handle)
                except BaseException as error:  # noqa: BLE001 - stored on the handle
                    handle._fail(error)
                    pending.extend(self._release(handle))
                    self._retire(handle)

    def _dispatch(self, handle: QueryHandle) -> None:
        # The task names the plan's first device; the one worker runs it.
        device = self.shard_set.positions_of(handle._plan.shard_set)[0]
        self.worker_pool.submit(device, self._run_sharded, handle)

    def _run_sharded(self, handle: QueryHandle) -> None:
        """Runs a query whole, on the session's worker."""
        result, run_ns, error = None, 0.0, None
        try:
            executor = ShardedQueryExecutor(self.shard_set, handle._share)
            result = executor.execute(handle._plan)
            run_ns = result.critical_path_ns
        except BaseException as caught:  # noqa: BLE001 - stored on the handle
            error = caught
        self._complete(handle, result, run_ns, error)

    def _complete(self, handle, result, run_ns, error) -> None:
        try:
            if error is not None:
                handle._fail(error)
            else:
                handle._finish(result, run_ns)
                self.calibration.record(result)
        finally:
            self._start(self._release(handle))
            self._retire(handle)

    def _release(self, handle: QueryHandle) -> list[QueryHandle]:
        """Return a handle's share.  The waiters it admits join
        ``_running`` before the handle leaves it, so shutdown never sees
        a false idle."""
        admitted = self.controller.release(handle)
        if admitted:
            self._admitted(admitted)
        return admitted

    def _retire(self, handle: QueryHandle) -> None:
        with self._idle:
            self._running.discard(handle)
            if not self._running:
                self._idle.notify_all()
        handle._done.set()

    # ------------------------------------------------------------------ #
    # Shutdown.
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> list[QueryHandle]:
        """Stop accepting queries, cancel waiters, drain admitted ones.

        Queued handles are cancelled; with ``wait`` the call then blocks
        until every admitted query has completed.  Returns the handles
        that were cancelled while queued.
        """
        with self._lock:
            self._closed = True
        cancelled = self.controller.drain_pending()
        if wait:
            with self._idle:
                self._idle.wait_for(lambda: not self._running)
        self.worker_pool.shutdown(wait=wait)
        return cancelled
