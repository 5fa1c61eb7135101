"""Admission control over the shared session bufferpool.

Every admitted query runs under its own child
:class:`~repro.storage.bufferpool.Bufferpool` share carved out of the
session pool, sized from the planner's memory estimate for the query
(:func:`estimate_plan_memory_bytes`).  Because shares reserve their full
budget in the parent up front, the set of concurrently admitted queries
can never jointly exceed the session budget — admission is exactly the
point where :class:`~repro.exceptions.BufferpoolExhaustedError` surfaces,
and what happens then is the admission policy, named by one of
:data:`ADMISSION_POLICIES`:

``queue``
    the query waits, first come first admitted, until running queries
    release enough memory;

``shed``
    the query is rejected immediately with
    :class:`~repro.exceptions.AdmissionRejectedError`;

``degrade``
    the request is halved (down to a floor) and the query replanned
    under the smaller budget — which is what pushes the planner toward
    low-memory physical operators (block nested loops instead of hash
    joins) and materialized boundaries (the pipeline feasibility gate
    fails) — queueing at the floor only if even that cannot be carved.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.aggregation.operators import HashAggregation
from repro.exceptions import (
    AdmissionRejectedError,
    BufferpoolExhaustedError,
    ConfigurationError,
)
from repro.query.planner import SORT_ALTERNATIVES
from repro.shard.planner import FragmentStep
from repro.storage.bufferpool import Bufferpool
from repro.workload_mgmt.handle import QueryHandle, QueryStatus

#: Floor on a query's DRAM share, in device blocks: even a degraded
#: query keeps enough workspace for a handful of blocks, which every
#: operator can run (or fall back) under.
MIN_SHARE_BLOCKS = 4


def admission_floor_bytes(budget) -> int:
    """The smallest share the controller will carve under ``budget``."""
    return min(budget.nbytes, MIN_SHARE_BLOCKS * budget.block_bytes)


# --------------------------------------------------------------------- #
# Planner-based memory estimation.
# --------------------------------------------------------------------- #
def _node_demand_bytes(node, budget) -> int:
    """Estimated DRAM workspace one plan node wants, capped at the budget.

    Streaming nodes (scan/filter/project) touch one block at a time.
    Blocking operators profit from memory up to a natural ceiling: a
    sort's input size, a join's build side, a hash aggregation's group
    state.  Beyond that ceiling extra DRAM is wasted, so the ceiling is
    the demand.
    """
    if node.factory is None:
        return budget.block_bytes
    operator = node.operator
    if operator in SORT_ALTERNATIVES or operator.startswith("SortAgg["):
        child = node.children[0]
        need = child.est_records * child.schema.record_bytes
    elif operator == "HashAgg":
        groups = node.extra.get("estimated_groups", node.est_records)
        need = groups * HashAggregation.GROUP_STATE_BYTES
    else:  # a join: want the build side resident.
        need = min(
            child.est_records * child.schema.record_bytes
            for child in node.children
        )
    return int(min(budget.nbytes, max(need, budget.block_bytes)))


def _fragment_demand_bytes(fragment) -> int:
    """Peak workspace demand of one fragment (its nodes run one at a time,
    so the peak — not the sum — is what the fragment needs)."""
    return max(
        _node_demand_bytes(node, fragment.budget) for node in fragment.root.walk()
    )


def estimate_plan_memory_bytes(plan) -> int:
    """The planner's DRAM estimate for one planned query, in bytes.

    The fragments of one step are priced as concurrent (one per device)
    and each holds its own share, so the estimate is ``num_shards`` times the peak fragment demand across steps
    — the amount the executor splits into per-shard child shares; on a
    single device it is the one fragment's peak per-node demand.  Exchange
    record buckets are staged in unaccounted DRAM (as in single-query
    execution) and are not part of the estimate.
    """
    fragment_demand = plan.shard_budget.block_bytes
    for step in plan.steps:
        if not isinstance(step, FragmentStep):
            continue
        for fragment in step.fragments:
            fragment_demand = max(fragment_demand, _fragment_demand_bytes(fragment))
    return int(min(plan.budget.nbytes, fragment_demand * plan.num_shards))


ADMISSION_POLICIES = ("queue", "shed", "degrade")


def resolve_policy(policy) -> str:
    """Validate an admission policy name (one of :data:`ADMISSION_POLICIES`)."""
    if isinstance(policy, str) and policy in ADMISSION_POLICIES:
        return policy
    raise ConfigurationError(
        f"unknown admission policy {policy!r}; expected one of "
        f"{', '.join(ADMISSION_POLICIES)}"
    )


# --------------------------------------------------------------------- #
# The controller.
# --------------------------------------------------------------------- #
class AdmissionController:
    """Carves per-query shares out of the session bufferpool.

    Args:
        bufferpool: the session pool every admitted query's share is
            carved from.
    """

    def __init__(self, bufferpool: Bufferpool) -> None:
        self.bufferpool = bufferpool
        #: Smallest share ``degrade`` shrinks to, and the lower clamp on
        #: every request.
        self.floor_bytes = admission_floor_bytes(bufferpool.budget)
        self._lock = threading.RLock()
        self._pending: deque[QueryHandle] = deque()

    # ------------------------------------------------------------------ #
    # Admission.
    # ------------------------------------------------------------------ #
    def try_admit(self, handle: QueryHandle, policy: str = "queue") -> bool:
        """Admit ``handle`` now, or apply ``policy`` (one of
        :data:`ADMISSION_POLICIES`) because its share cannot be carved.

        Returns ``True`` when the handle holds an admitted share on
        return; ``False`` when it was queued or rejected.
        """
        policy = resolve_policy(policy)
        with self._lock:
            if self._carve(handle):
                return True
            if policy == "shed":
                handle._reject(
                    AdmissionRejectedError(
                        f"query {handle.tag or handle.seq} shed by admission "
                        f"control: cannot carve {handle.requested_bytes} "
                        f"bytes; {self.bufferpool.available_bytes} of "
                        f"{self.bufferpool.budget.nbytes} available"
                    )
                )
                return False
            if policy == "degrade":
                # The scheduler replans a degraded query under its
                # admitted budget, so the planner picks low-memory
                # operators on its own.
                while handle.requested_bytes > self.floor_bytes:
                    handle.requested_bytes = max(
                        self.floor_bytes, handle.requested_bytes // 2
                    )
                    handle.degraded = True
                    if self._carve(handle):
                        return True
            self._pending.append(handle)
            return False

    def release(self, handle: QueryHandle) -> list[QueryHandle]:
        """Return a finished query's share; admit unblocked waiters.

        Waiters are admitted in arrival order with head-of-line blocking:
        admission stops at the first waiter that still does not fit, so a
        large early query is never starved by small late ones.  Returns
        the newly admitted handles for the scheduler to start.
        """
        with self._lock:
            self._close_share(handle)
            admitted: list[QueryHandle] = []
            while self._pending:
                head = self._pending[0]
                if head.status is not QueryStatus.QUEUED:
                    self._pending.popleft()  # cancelled: drop lazily
                    continue
                if not self._carve(head):
                    break
                self._pending.popleft()
                admitted.append(head)
            return admitted

    def cancel(self, handle: QueryHandle) -> bool:
        """Cancel a queued handle (lazily removed from the queue)."""
        with self._lock:
            if handle.status is not QueryStatus.QUEUED:
                return False
            handle._cancel_queued()
            return True

    def drain_pending(self) -> list[QueryHandle]:
        """Cancel every queued handle (used by ``Session.close``)."""
        with self._lock:
            cancelled = []
            while self._pending:
                head = self._pending.popleft()
                if head.status is QueryStatus.QUEUED:
                    head._cancel_queued()
                    cancelled.append(head)
            return cancelled

    # ------------------------------------------------------------------ #
    # Internals (called under the lock).
    # ------------------------------------------------------------------ #
    def _carve(self, handle: QueryHandle) -> bool:
        nbytes = max(self.floor_bytes, int(handle.requested_bytes))
        nbytes = min(nbytes, self.bufferpool.budget.nbytes)
        owner = f"query-{handle.seq}" + (f"[{handle.tag}]" if handle.tag else "")
        try:
            share = self.bufferpool.share(nbytes=nbytes, owner=owner)
        except BufferpoolExhaustedError:
            return False
        handle._share = share
        handle.admitted_bytes = nbytes
        # The status flips to RUNNING here, under the controller lock,
        # not later at start: cancel() checks the status under the same
        # lock, so a handle admitted by a concurrent release() can never
        # be "cancelled" after its share was carved and then run anyway.
        handle._mark_running()
        return True

    def _close_share(self, handle: QueryHandle) -> None:
        share = handle._share
        if share is None:
            return
        handle._share = None
        try:
            share.close()
        except ConfigurationError:
            # A failed query may have leaked workspace reservations; the
            # memory must still return to the session pool, so force the
            # release and close again.
            for owner in list(share.holders()):
                share.release(owner)
            share.close()
