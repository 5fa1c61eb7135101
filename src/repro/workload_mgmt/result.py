"""Workload-level results and reporting."""

from __future__ import annotations

from dataclasses import dataclass

from repro.workload_mgmt.handle import QueryHandle, QueryStatus


@dataclass
class WorkloadResult:
    """Outcome of one ``Session.run_workload`` call.

    ``critical_path_ns`` is the workload's simulated makespan: the
    simulated devices work in parallel while the queries run one after
    another on the session's worker, so the makespan is the busiest
    device's simulated time over the workload window.  ``serial_sum_ns`` — the sum
    of every completed query's own run time — is what running the same
    queries back-to-back would cost; the gap between the two is the
    co-scheduling overlap.
    """

    handles: list[QueryHandle]
    policy: str
    critical_path_ns: float

    # ------------------------------------------------------------------ #
    # Slicing helpers.
    # ------------------------------------------------------------------ #
    def with_status(self, status: QueryStatus) -> list[QueryHandle]:
        return [handle for handle in self.handles if handle.status is status]

    @property
    def completed(self) -> list[QueryHandle]:
        return self.with_status(QueryStatus.DONE)

    @property
    def rejected(self) -> list[QueryHandle]:
        return self.with_status(QueryStatus.REJECTED)

    @property
    def failed(self) -> list[QueryHandle]:
        return self.with_status(QueryStatus.FAILED)

    @property
    def cancelled(self) -> list[QueryHandle]:
        return self.with_status(QueryStatus.CANCELLED)

    @property
    def serial_sum_ns(self) -> float:
        """Summed per-query run time: the back-to-back execution cost."""
        return sum(handle.run_ns for handle in self.completed)

    @property
    def overlap(self) -> float:
        """serial-sum / critical-path: >1 means co-scheduling overlapped."""
        if self.critical_path_ns <= 0.0:
            return 1.0
        return self.serial_sum_ns / self.critical_path_ns

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #
    def explain(self) -> str:
        """Per-query admission/timing table plus the workload summary."""
        counts = {
            "completed": len(self.completed),
            "rejected": len(self.rejected),
            "failed": len(self.failed),
            "cancelled": len(self.cancelled),
        }
        summary = ", ".join(
            f"{count} {label}" for label, count in counts.items() if count
        )
        lines = [
            f"workload: {len(self.handles)} queries (policy={self.policy})"
            f" -- {summary or 'nothing ran'}",
            f"{'#':>3} {'tag':<18} {'status':<10} "
            f"{'queue-wait ns':>14} {'run ns':>12} {'admitted B':>11}",
        ]
        for handle in self.handles:
            tag = handle.tag if handle.tag is not None else f"query-{handle.seq}"
            admitted = (
                f"{handle.admitted_bytes}" if handle.admitted_bytes else "-"
            )
            degraded = "*" if handle.degraded else ""
            lines.append(
                f"{handle.seq:>3} {tag:<18.18} {handle.status.value:<10} "
                f"{handle.queue_wait_ns:>14.0f} "
                f"{handle.run_ns:>12.0f} {admitted + degraded:>11}"
            )
        if any(handle.degraded for handle in self.handles):
            lines.append("(* admitted under a degraded budget)")
        lines.append(
            f"critical path: {self.critical_path_ns:.0f} ns"
            f" | serial sum: {self.serial_sum_ns:.0f} ns"
            f" | overlap: {self.overlap:.2f}x"
        )
        return "\n".join(lines)
