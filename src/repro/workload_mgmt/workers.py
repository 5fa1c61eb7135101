"""Per-device worker pools.

The simulated devices keep unsynchronized I/O counters, so correctness
of the accounting rests on one invariant: *at any moment, at most one
thread touches one device*.  Within a single sharded query the barrier
structure of the plan steps used to guarantee this; once fragments from
*different* queries are co-scheduled, the guarantee must come from the
pool itself.

:class:`DeviceWorkerPool` provides it: one serial (single-thread)
executor per device, with every task keyed by the device it touches.  A
device's tasks always land on the same worker queue, so they execute in
submission order, serialized across queries — which also makes task-local
``device.snapshot()`` deltas exact per-task attributions even when many
queries share the devices.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from repro.exceptions import ConfigurationError


class DeviceWorkerPool:
    """One serial worker per simulated device.

    Args:
        num_devices: how many devices the pool serves; tasks are keyed by
            device index in ``[0, num_devices)``.

    Tasks for device ``i`` run on worker ``i``, in submission order.
    Because a device's work is funneled through exactly one thread, the
    device's counters are only ever updated by that thread and a
    ``snapshot()`` delta taken inside a task measures exactly that task's
    I/O — the property the workload scheduler relies on to keep per-query
    accounting exact under concurrency.
    """

    def __init__(self, num_devices: int) -> None:
        if num_devices <= 0:
            raise ConfigurationError("a worker pool needs at least one device")
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"device-worker-{index}"
            )
            for index in range(num_devices)
        ]
        self._shutdown = False

    @property
    def num_devices(self) -> int:
        return len(self._executors)

    def submit(self, device_index: int, fn: Callable, *args, **kwargs) -> Future:
        """Queue ``fn(*args, **kwargs)`` on ``device_index``'s worker."""
        if self._shutdown:
            raise ConfigurationError("the worker pool is shut down")
        return self._executors[device_index % len(self._executors)].submit(
            fn, *args, **kwargs
        )

    def map_shards(
        self, fn: Callable[[int], object], device_indices: Sequence[int]
    ) -> list:
        """Run ``fn(i)`` for every position ``i``, on worker ``device_indices[i]``.

        Results come back in position order; if any task raised, every
        task is still awaited and the first error is re-raised.
        """
        futures = [
            self.submit(device, fn, index)
            for index, device in enumerate(device_indices)
        ]
        results: list = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting tasks and (optionally) wait for the queues."""
        self._shutdown = True
        for executor in self._executors:
            executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DeviceWorkerPool(devices={self.num_devices})"
