"""The session's worker: one serial thread that runs every query.

The simulated devices keep unsynchronized I/O counters, so correctness
of the accounting rests on one invariant: *at any moment, at most one
thread touches one device*.  :class:`DeviceWorkerPool` keeps it by
construction: every admitted query runs whole, as one task, on a single
serial worker thread, in submission order.  No two queries ever overlap,
so a ``device.snapshot()`` delta taken inside a query measures exactly
that query's I/O, and the per-shard tasks of a sharded query can run one
after another on the same thread.

The simulated devices still work in parallel: a query's critical path is
priced from the per-shard deltas as if its shards ran concurrently, and
the workload's critical path is the busiest device's simulated time.
The Python work is bound by the interpreter lock, so more threads would
buy no wall time.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from repro.exceptions import ConfigurationError


class DeviceWorkerPool:
    """One serial worker for a session's devices.

    Args:
        num_devices: how many devices the session has; a task names the
            device index in ``[0, num_devices)`` it is submitted for.

    Every task runs on the one worker thread, in submission order, so a
    device's counters are only ever updated by that thread -- the
    property the workload scheduler relies on to keep per-query
    accounting exact.
    """

    def __init__(self, num_devices: int) -> None:
        if num_devices <= 0:
            raise ConfigurationError("a worker pool needs at least one device")
        self.num_devices = num_devices
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="session-worker"
        )
        self._shutdown = False

    def submit(self, device_index: int, fn: Callable, *args, **kwargs) -> Future:
        """Queue ``fn(*args, **kwargs)`` on the worker."""
        if self._shutdown:
            raise ConfigurationError("the worker pool is shut down")
        return self._executor.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting tasks and (optionally) wait for the queue."""
        self._shutdown = True
        self._executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DeviceWorkerPool(devices={self.num_devices})"
