"""Multi-query workload management.

The subsystem behind ``Session.submit()`` / ``Session.run_workload()``:

* :mod:`repro.workload_mgmt.admission` — the
  :class:`AdmissionController` carves each admitted query a child
  :class:`~repro.storage.bufferpool.Bufferpool` share sized from the
  planner's memory estimate, and applies the named admission policy
  (``queue`` / ``shed`` / ``degrade``) when the session pool is
  exhausted;
* :mod:`repro.workload_mgmt.scheduler` — the :class:`WorkloadScheduler`
  takes every submission one way (plan the batch, admit each member,
  start the admitted ones) and runs every started query whole on the
  session's one serial worker (:class:`DeviceWorkerPool`), so no two
  threads touch a device at once, which the I/O accounting depends on;
* :mod:`repro.workload_mgmt.handle` — the :class:`QueryHandle`
  lifecycle (``status`` / ``result()`` / ``cancel()``): QUEUED →
  RUNNING → DONE/FAILED, or QUEUED → CANCELLED/REJECTED;
* :mod:`repro.workload_mgmt.result` — the :class:`WorkloadResult`
  report (per-query queue-wait vs. run time, workload critical path);
* :mod:`repro.workload_mgmt.calibration` — the cost-model calibration
  aggregator behind ``Session.calibration_report()``.
"""

from repro.workload_mgmt.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    admission_floor_bytes,
    estimate_plan_memory_bytes,
    resolve_policy,
)
from repro.workload_mgmt.calibration import CalibrationAggregator
from repro.workload_mgmt.handle import QueryHandle, QueryStatus
from repro.workload_mgmt.result import WorkloadResult
from repro.workload_mgmt.scheduler import WorkloadScheduler
from repro.workload_mgmt.workers import DeviceWorkerPool

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "admission_floor_bytes",
    "estimate_plan_memory_bytes",
    "resolve_policy",
    "CalibrationAggregator",
    "QueryHandle",
    "QueryStatus",
    "WorkloadResult",
    "WorkloadScheduler",
    "DeviceWorkerPool",
]
