"""Query lifecycle handles for the workload API.

``Session.submit()`` returns a :class:`QueryHandle` immediately; the
query itself is admitted (or queued, shed, or degraded) by the
:class:`~repro.workload_mgmt.admission.AdmissionController` and executed
by the :class:`~repro.workload_mgmt.scheduler.WorkloadScheduler`.  The
handle is the caller's view of that lifecycle: ``status``, blocking
``result()``, ``cancel()``, and the admission/timing telemetry the
workload report aggregates.
"""

from __future__ import annotations

import enum
import threading
from typing import Optional

from repro.exceptions import QueryCancelledError


class QueryStatus(enum.Enum):
    """Lifecycle states of one submitted query."""

    #: Waiting for admission: its bufferpool share cannot be carved yet.
    QUEUED = "queued"
    #: Admitted -- its bufferpool share is carved -- and executing (or
    #: about to; the status flips at admission, so a handle that can no
    #: longer be cancelled is never reported as still queued).
    RUNNING = "running"
    #: Finished successfully; :meth:`QueryHandle.result` returns.
    DONE = "done"
    #: Raised during execution; :meth:`QueryHandle.result` re-raises.
    FAILED = "failed"
    #: Shed by the admission policy; ``result()`` raises
    #: :class:`~repro.exceptions.AdmissionRejectedError`.
    REJECTED = "rejected"
    #: Cancelled while queued; ``result()`` raises
    #: :class:`~repro.exceptions.QueryCancelledError`.
    CANCELLED = "cancelled"


class QueryHandle:
    """One submitted query: status, result, cancellation, telemetry.

    Attributes:
        query: what was submitted (a ``Query`` or logical node).
        tag: caller-supplied label used in workload reports.
        requested_bytes: DRAM the admission controller asked for (after
            any degrade steps).
        admitted_bytes: size of the carved bufferpool share, once
            admitted.
        degraded: the ``degrade`` policy shrank the request below the
            planner's estimate (the query was replanned under the smaller
            budget).
        queue_wait_ns: simulated device-busy nanoseconds that elapsed
            between submission and admission (the admission queue wait).  On
            a multi-device session the busy clock is the busiest
            device's, so a queued query's value depends on which of
            several concurrent releases admitted it.
        run_ns: the query's own simulated run time once finished — its
            critical path (the whole device time on one device).
    """

    def __init__(self, query, *, tag: Optional[str] = None, seq: int = 0) -> None:
        self.query = query
        self.tag = tag
        self.seq = seq
        self.requested_bytes: Optional[int] = None
        self.admitted_bytes: Optional[int] = None
        self.degraded = False
        self.queue_wait_ns = 0.0
        self.run_ns = 0.0
        self._status = QueryStatus.QUEUED
        self._done = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None
        # Scheduler-internal fields (set during prepare/admission).
        self._scheduler = None
        self._share = None
        self._plan = None
        self._reference_plan = None
        self._boundary_policy: Optional[str] = None
        self._materialize_result = False
        self._memory_bytes: Optional[int] = None
        self._clock_submit = 0.0

    # ------------------------------------------------------------------ #
    # Caller-facing API.
    # ------------------------------------------------------------------ #
    @property
    def status(self) -> QueryStatus:
        return self._status

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the query reaches a terminal state."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The query's result, blocking until it is available.

        Raises the query's error for ``FAILED`` queries, an
        :class:`~repro.exceptions.AdmissionRejectedError` for shed ones,
        and :class:`~repro.exceptions.QueryCancelledError` for cancelled
        ones.  Raises :class:`TimeoutError` when ``timeout`` elapses
        first.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query {self.describe()} did not finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self) -> bool:
        """Cancel the query if it is still waiting for admission.

        Running queries are not interrupted; returns ``False`` for them
        (and for queries already in a terminal state).
        """
        if self._scheduler is None:
            return False
        return self._scheduler.controller.cancel(self)

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def describe(self) -> str:
        label = self.tag if self.tag is not None else f"#{self.seq}"
        return f"{label} ({self._status.value})"

    # ------------------------------------------------------------------ #
    # Scheduler-internal transitions.
    # ------------------------------------------------------------------ #
    def _mark_running(self) -> None:
        self._status = QueryStatus.RUNNING

    def _finish(self, result, run_ns: float) -> None:
        self._result = result
        self.run_ns = run_ns
        self._status = QueryStatus.DONE

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._status = QueryStatus.FAILED

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._status = QueryStatus.REJECTED
        self._done.set()

    def _cancel_queued(self) -> None:
        self._error = QueryCancelledError(
            f"query {self.tag or self.seq} was cancelled while queued"
        )
        self._status = QueryStatus.CANCELLED
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"QueryHandle({self.describe()})"
