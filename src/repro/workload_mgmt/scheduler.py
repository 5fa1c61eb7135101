"""Concurrent workload scheduling over shared devices.

The scheduler turns the admission controller's decisions into running
queries while preserving the one invariant the simulated accounting
depends on: *per-device serialization across queries*.  All work that
touches device ``i`` is funneled through device ``i``'s serial worker in
the shared :class:`DeviceWorkerPool`, so fragments from different
queries are co-scheduled on one worker-per-device pool exactly as
fragments of a single query are.

Every admitted query runs the same way: a coordinator calls the
:class:`~repro.shard.executor.ShardedQueryExecutor` on the query's plan,
under the query's admitted bufferpool share.  Where the coordinator runs
follows from the plan:

* a plan that touches **one device** (every single-device query, and a
  plain query on one shard backend) runs its coordinator as one task on
  that device's worker, and the executor runs the fragment inline there;
* a plan that touches **several devices** gets a lightweight coordinator
  thread that walks the plan's steps and submits each step's per-shard
  tasks to the shared pool (the executor measures every task's I/O
  locally on the worker, so interleaved queries never pollute each
  other's snapshots).

Simulated time: devices only advance their clocks by doing work, so the
scheduler's *busy clock* — the maximum over devices of simulated busy
nanoseconds since the scheduler started — is the workload's notion of
"now".  A query's ``queue_wait_ns`` is the busy-clock delta between
submission and admission; its ``run_ns`` is its own critical path.
"""

from __future__ import annotations

import threading
from typing import Optional

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
    promptly and its worker threads exit.

    Args:
        bufferpool: the session pool admitted shares are carved from.
        budget: the session budget (reference plans are priced under it).
        shard_set: the session's devices; one serial worker is created
            per device, in shard order.
        policy: the default admission policy name.
        calibration: aggregator fed every completed query's result.
    """

    def __init__(
        self,
        bufferpool: Bufferpool,
        budget: MemoryBudget,
        shard_set: ShardSet,
        policy: str = "queue",
        calibration: Optional[CalibrationAggregator] = None,
    ) -> None:
        self.budget = budget
        self.shard_set = shard_set
        self.devices = shard_set.devices
        self.worker_pool = DeviceWorkerPool(len(self.devices))
        self.controller = AdmissionController(bufferpool, policy=policy)
        self.calibration = calibration
        self._baseline_ns = [device.snapshot().total_ns for device in self.devices]
        self._lock = threading.Lock()
        #: Notified whenever ``_running`` becomes empty.
        self._idle = threading.Condition(self._lock)
        self._running: set[QueryHandle] = set()
        #: Admitted with dispatch deferred, and not yet started.
        self._unstarted: set[QueryHandle] = set()
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

    def submit(
        self, handle: QueryHandle, *, policy=None, dispatch: bool = True
    ) -> QueryHandle:
        """Admit (or queue/shed/degrade) a handle; maybe dispatch it.

        With ``dispatch=False`` an admitted handle holds its share but does
        not start until :meth:`start` — ``run_workload`` uses this to make
        admission decisions for a whole batch before any query can finish
        (and thereby free memory), which keeps the ``shed`` policy's
        rejections deterministic.  A handle queued here is dispatched by
        whichever release admits it, never by :meth:`start`.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "the session is closed; no further queries can be submitted"
                )
        handle._scheduler = self
        handle._clock_submit = self.busy_clock_ns()
        self._prepare(handle)
        if self.controller.try_admit(handle, policy=policy):
            self._record_queue_wait(handle)
            self._finalize(handle)
            if dispatch:
                self._dispatch(handle)
            else:
                with self._lock:
                    self._unstarted.add(handle)
        return handle

    def _record_queue_wait(self, handle: QueryHandle) -> None:
        """Stamp the admission wait: simulated busy ns between submit and
        the moment the share was carved (not dispatch, which can lag by
        wall-clock scheduling jitter without any simulated time passing
        for the query)."""
        handle.queue_wait_ns = max(
            0.0, self.busy_clock_ns() - handle._clock_submit
        )

    def start(self, handle: QueryHandle) -> None:
        """Dispatch a handle admitted at submit with ``dispatch=False``.

        A no-op for every other handle: queued handles are dispatched by
        the release that admits them, possibly on a worker thread at this
        very moment.
        """
        with self._lock:
            if handle not in self._unstarted:
                return
            self._unstarted.discard(handle)
        self._dispatch(handle)

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
        handle._workers = self.shard_set.positions_of(plan.shard_set)
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
    # Dispatch and completion.
    # ------------------------------------------------------------------ #
    def _dispatch(self, handle: QueryHandle) -> None:
        if not handle._claim_dispatch():
            return
        with self._lock:
            self._running.add(handle)
        try:
            if len(handle._workers) == 1:
                # One device: its worker coordinates, and runs the
                # fragment inline -- no extra thread hop.
                self.worker_pool.submit(
                    handle._workers[0], self._run_sharded, handle
                )
            else:
                threading.Thread(
                    target=self._run_sharded,
                    args=(handle,),
                    name=f"workload-query-{handle.seq}",
                    daemon=True,
                ).start()
        except BaseException:
            with self._idle:
                self._running.discard(handle)
                self._idle.notify_all()
            raise

    def _run_sharded(self, handle: QueryHandle) -> None:
        """Runs a query's coordinator: on its device's worker for a
        one-device plan, else on its own thread."""
        result, run_ns, error = None, 0.0, None
        try:
            executor = ShardedQueryExecutor(
                self.shard_set, handle._share, self.worker_pool
            )
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
                if self.calibration is not None:
                    self.calibration.record(result)
        finally:
            # Waiters this release admits enter ``_running`` before this
            # handle leaves it, so shutdown never sees a false idle.
            self._release_and_dispatch(handle)
            with self._idle:
                self._running.discard(handle)
                if not self._running:
                    self._idle.notify_all()
            handle._done.set()

    def _release_and_dispatch(self, handle: QueryHandle) -> None:
        """Return a handle's share and dispatch every waiter it admits."""
        pending = list(self.controller.release(handle))
        while pending:
            waiter = pending.pop(0)
            try:
                self._record_queue_wait(waiter)
                self._finalize(waiter)
                self._dispatch(waiter)
            except BaseException as dispatch_error:  # noqa: BLE001
                waiter._fail(dispatch_error)
                # Releasing the failed waiter's share can admit more
                # queued handles; they must be dispatched too, not
                # dropped holding their shares.
                pending.extend(self.controller.release(waiter))
                waiter._done.set()

    def abandon(self, handle: QueryHandle) -> None:
        """Resolve a handle that will never be started.

        Used when a batch submission fails partway and at shutdown:
        queued handles are cancelled, and handles admitted with
        ``dispatch=False`` give their shares back (possibly admitting
        other waiters, which are dispatched normally).  Dispatched or
        terminal handles are left alone.
        """
        with self._lock:
            self._unstarted.discard(handle)
        if handle.done:
            return
        if handle._share is None:
            # Atomic with admission: a handle a release admits meanwhile
            # is not cancelled, and its releaser dispatches it.
            self.controller.cancel(handle)
            return
        if not handle._claim_dispatch():
            return
        handle._cancel_abandoned()
        self._release_and_dispatch(handle)

    def _cancel(self, handle: QueryHandle) -> bool:
        return self.controller.cancel(handle)

    # ------------------------------------------------------------------ #
    # Shutdown.
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> list[QueryHandle]:
        """Stop accepting queries, cancel waiters, drain running ones.

        Queued handles are cancelled and handles admitted but never
        started are abandoned (their shares returned); with ``wait`` the
        call then blocks until every running query has completed.
        Returns the handles that were cancelled while queued.
        """
        with self._lock:
            self._closed = True
            unstarted = list(self._unstarted)
        cancelled = self.controller.drain_pending()
        for handle in unstarted:
            self.abandon(handle)
        if wait:
            with self._idle:
                self._idle.wait_for(lambda: not self._running)
        self.worker_pool.shutdown(wait=wait)
        return cancelled
