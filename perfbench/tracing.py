"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of every layer of ``repro`` from
the outside -- nothing under ``src/`` is instrumented -- and records one
span per call.  A span knows its name, its parent and the query it
belongs to; its *self time* is its duration minus the part of that
interval its child spans cover.  Spans stay in memory as per-thread
aggregates and are merged when the run ends.

Work that hops threads keeps its query: the query's span is captured when
the task is handed to ``DeviceWorkerPool.submit`` (or when the sharded
coordinator thread starts) and restored on the worker, so spans on device
worker threads hang under the query that caused them.  Time a worker
spends on a query's behalf is subtracted from the self time of the nearest
ancestor still open on the submitting thread.

:meth:`Tracer.install` patches the classes; :meth:`Tracer.uninstall`
restores every original attribute, so an untraced run executes the
library exactly as shipped.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref

_now = time.perf_counter_ns

#: The pmem device accounting primitives, traced as leaf calls.
DEVICE_CALLS = ("read", "write", "read_bulk", "write_bulk")


class Stat:
    """Aggregate of every span with one name on one thread."""

    __slots__ = ("calls", "total_ns", "self_ns", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counts: dict[str, float] = {}

    def add_count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        for key, value in other.counts.items():
            self.add_count(key, value)


class Span:
    """One traced call, or one generator across all of its pulls."""

    __slots__ = (
        "name", "parent", "query", "thread", "start", "end",
        "child_ns", "remote", "items", "records",
    )

    def __init__(self, name, parent, query, thread, start) -> None:
        self.name = name
        self.parent = parent
        self.query = query
        self.thread = thread
        self.start = start
        self.end = None
        self.child_ns = 0
        #: ``(start, end)`` of descendants that ran on other threads while
        #: this span was open.
        self.remote: list[tuple[int, int]] = []
        self.items = 0
        self.records = 0


class _ThreadState:
    __slots__ = ("stack", "stats", "ctx", "spans", "attached", "is_client")

    def __init__(self, is_client: bool) -> None:
        self.stack: list[Span] = []
        self.stats: dict[str, Stat] = {}
        #: The span that work on this thread belongs to while its stack is
        #: empty (restored from the thread that handed the work over).
        self.ctx = None
        self.spans = 0
        self.attached = 0
        self.is_client = is_client


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """In-memory span recorder that patches the library's layer entries."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[type, str, object]] = []
        self._query_ids = itertools.count(1)
        self._client = threading.get_ident()
        self._handle_ctx = weakref.WeakKeyDictionary()
        self._queued_at = weakref.WeakKeyDictionary()
        self._pulled = weakref.WeakSet()
        #: q-error of every executed non-scan plan node.
        self.qerrors: list[float] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping.
    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident() == self._client)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def current(self):
        """The innermost open span of this thread, or its restored context."""
        state = self._state()
        return state.stack[-1] if state.stack else state.ctx

    @staticmethod
    def _stat(state: _ThreadState, name: str) -> Stat:
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = Stat()
        return stat

    def _open(self, name: str, new_query: bool, start: int) -> Span:
        state = self._state()
        parent = state.stack[-1] if state.stack else state.ctx
        if new_query:
            query = next(self._query_ids)
        else:
            query = parent.query if parent is not None else None
        state.spans += 1
        if query is not None:
            state.attached += 1
        return Span(name, parent, query, state, start)

    def enter(self, name: str, *, new_query: bool = False) -> Span:
        """Open a span on this thread under the current span."""
        span = self._open(name, new_query, _now())
        span.thread.stack.append(span)
        return span

    def exit(self, span: Span) -> Stat:
        """Close ``span``: account its self time and charge its parent."""
        state = span.thread
        end = _now()
        state.stack.pop()
        span.end = end
        duration = end - span.start
        with self._lock:
            remote = covered_ns(span.remote, span.start, end)
        stat = self._stat(state, span.name)
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += max(0, duration - span.child_ns - remote)
        parent = span.parent
        if parent is None:
            return stat
        if parent.thread is state and parent.end is None:
            parent.child_ns += duration
        else:
            self.cover(parent, span.start, end)
        return stat

    def cover(self, span, start: int, end: int) -> None:
        """Charge ``[start, end]``, spent on another thread, to the nearest
        ancestor-or-self of ``span`` that is still open."""
        with self._lock:
            while span is not None and span.end is not None:
                span = span.parent
            if span is not None:
                span.remote.append((start, end))

    def traced_iter(self, name: str, iterator, sized: bool = True):
        """Trace an iterator as one span whose duration is its pull time.

        Each pull runs with the span on top of the pulling thread's stack,
        so calls made while producing an item are its children; the pull
        itself is charged to whatever span was on top before.  ``sized``
        items are blocks whose lengths add up to the record count.
        """
        span = self._open(name, False, 0)
        active = 0
        try:
            while True:
                state = self._state()
                span.thread = state
                stack = state.stack
                outer = stack[-1] if stack else None
                stack.append(span)
                started = _now()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    pulled = _now() - started
                    active += pulled
                    if outer is not None:
                        outer.child_ns += pulled
                span.items += 1
                span.records += len(item) if sized else 1
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
            span.end = _now()
            stat = self._stat(span.thread, name)
            stat.calls += 1
            stat.total_ns += active
            stat.self_ns += max(0, active - span.child_ns)
            stat.add_count("records", span.records)
            if sized:
                stat.add_count("blocks", span.items)

    # ------------------------------------------------------------------ #
    # Patching.
    # ------------------------------------------------------------------ #
    def _patch(self, owner: type, attr: str, make) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _wrap_call(self, owner, attr, name_of, on_result=None, new_query=False):
        """Trace ``owner.attr`` as a span named ``name_of(self_arg)``.

        ``on_result(stat, args, result, error)`` runs after the span closes
        and adds counts to the span's aggregate.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.enter(name_of(args[0]), new_query=new_query)
                try:
                    result = original(*args, **kwargs)
                except BaseException as error:
                    stat = tracer.exit(span)
                    if on_result is not None:
                        on_result(stat, args, None, error)
                    raise
                stat = tracer.exit(span)
                if on_result is not None:
                    on_result(stat, args, result, None)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def _wrap_iter(self, owner, attr, name_of, sized=True, before=None):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args[0])
                return tracer.traced_iter(
                    name_of(args[0]), iter(original(*args, **kwargs)), sized
                )

            return wrapper

        self._patch(owner, attr, make)

    def _wrap_device(self, owner, attr: str) -> None:
        """A device accounting primitive: a leaf, so no span object."""
        tracer = self
        name = f"pmem.device.{attr}"
        bulk = attr.endswith("_bulk")

        def make(original):
            def wrapper(device, nbytes, *args, **kwargs):
                started = _now()
                result = original(device, nbytes, *args, **kwargs)
                duration = _now() - started
                state = tracer._state()
                if state.stack:
                    state.stack[-1].child_ns += duration
                stat = tracer._stat(state, name)
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration
                count = (args[0] if args else kwargs["count"]) if bulk else 1
                stat.add_count(
                    "cachelines",
                    nbytes * count / device.geometry.cacheline_bytes,
                )
                return result

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "Tracer":
        """Patch every traced entry point (see the module docstring)."""
        from repro.aggregation.operators import _AggregationBase
        from repro.exceptions import BufferpoolExhaustedError
        from repro.joins.base import JoinAlgorithm
        from repro.pmem.backends.base import PersistenceBackend
        from repro.pmem.device import PersistentMemoryDevice
        from repro.query.executor import QueryExecutor
        from repro.query.physical import PhysicalOperator
        from repro.query.planner import CostBasedPlanner
        from repro.runtime.context import OperatorContext
        from repro.session import Session
        from repro.shard.executor import ShardedQueryExecutor
        from repro.shard.planner import ShardedPlanner
        from repro.sorts.base import SortAlgorithm
        from repro.storage.bufferpool import Bufferpool
        from repro.storage.collection import PersistentCollection
        from repro.workload_mgmt.admission import AdmissionController
        from repro.workload_mgmt.handle import QueryHandle, QueryStatus
        from repro.workload_mgmt.scheduler import WorkloadScheduler
        from repro.workload_mgmt.workers import DeviceWorkerPool

        if self._patches:
            raise RuntimeError("the tracer is already installed")
        tracer = self

        def fixed(name):
            return lambda _self: name

        self._wrap_call(
            Session, "submit", fixed("session.submit"), new_query=True
        )
        self._wrap_call(CostBasedPlanner, "plan", fixed("query.planner.plan"))
        self._wrap_call(ShardedPlanner, "plan", fixed("shard.planner.plan"))

        def record_qerrors(stat, args, result, error):
            if result is None:
                return
            errors = []
            for execution in result.executions.values():
                if execution.node.operator == "Scan":
                    continue
                est = max(1.0, float(execution.node.est_records))
                act = max(1.0, float(execution.records))
                errors.append(max(est / act, act / est))
            with tracer._lock:
                tracer.qerrors.extend(errors)

        self._wrap_call(
            QueryExecutor, "execute", fixed("query.executor.execute"),
            record_qerrors,
        )
        self._wrap_call(
            ShardedQueryExecutor, "execute", fixed("shard.executor.execute")
        )

        # Admission: outcome counts, and the wall time queued queries wait
        # until a release admits them.
        def admission_outcome(stat, args, admitted, error):
            handle = args[1]
            if admitted:
                stat.add_count("admitted", 1)
            elif handle.status is QueryStatus.QUEUED:
                stat.add_count("queued", 1)
                with tracer._lock:
                    tracer._queued_at[handle] = _now()
            else:
                stat.add_count("shed", 1)

        self._wrap_call(
            AdmissionController, "try_admit",
            fixed("workload_mgmt.admission.try_admit"), admission_outcome,
        )

        def make_release(original):
            def release(controller, handle):
                admitted = original(controller, handle)
                now = _now()
                stat = tracer._stat(
                    tracer._state(), "workload_mgmt.admission.try_admit"
                )
                for waiter in admitted:
                    with tracer._lock:
                        queued_at = tracer._queued_at.pop(waiter, None)
                    if queued_at is not None:
                        stat.add_count("queue_wait_ns", now - queued_at)
                return admitted

            return release

        self._patch(AdmissionController, "release", make_release)

        # Cross-thread context: a handle keeps the span it was submitted
        # under; its worker task or sharded coordinator restores it.
        def handle_ctx(handle):
            with tracer._lock:
                return tracer._handle_ctx.get(handle)

        def make_scheduler_submit(original):
            def submit(scheduler, handle, **kwargs):
                ctx = tracer.current()
                with tracer._lock:
                    tracer._handle_ctx[handle] = ctx
                return original(scheduler, handle, **kwargs)

            return submit

        self._patch(WorkloadScheduler, "submit", make_scheduler_submit)

        def make_run_sharded(original):
            def run_sharded(scheduler, handle):
                state = tracer._state()
                saved, state.ctx = state.ctx, handle_ctx(handle)
                try:
                    return original(scheduler, handle)
                finally:
                    state.ctx = saved

            return run_sharded

        self._patch(WorkloadScheduler, "_run_sharded", make_run_sharded)

        def make_pool_submit(original):
            def submit(pool, device_index, fn, *args, **kwargs):
                ctx = None
                if args and isinstance(args[0], QueryHandle):
                    ctx = handle_ctx(args[0])
                if ctx is None:
                    ctx = tracer.current()
                submitted = _now()
                device = device_index % pool.num_devices

                def task():
                    state = tracer._state()
                    saved, state.ctx = state.ctx, ctx
                    span = tracer.enter("workload_mgmt.workers.task")
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stat = tracer.exit(span)
                        # Queueing behind the device's other tasks is
                        # waiting, not the submitter's own work.
                        tracer.cover(ctx, submitted, span.start)
                        stat.add_count("wait_ns", span.start - submitted)
                        stat.add_count(
                            f"dev{device}.busy_ns", span.end - span.start
                        )
                        state.ctx = saved

                return original(pool, device_index, task)

            return submit

        self._patch(DeviceWorkerPool, "submit", make_pool_submit)

        # Physical operators: open, block pulls, records out.
        def op_name(op):
            return type(op).__name__.removesuffix("Operator")

        self._wrap_call(
            PhysicalOperator, "open",
            lambda op: f"query.physical.{op_name(op)}.open",
        )

        def mark_pulled(op):
            with tracer._lock:
                tracer._pulled.add(op)

        self._wrap_iter(
            PhysicalOperator, "blocks",
            lambda op: f"query.physical.{op_name(op)}.blocks",
            before=mark_pulled,
        )

        def make_close(original):
            def close(op):
                original(op)
                with tracer._lock:
                    pulled = op in tracer._pulled
                output = op.output
                # Pipelined in-DRAM outputs are handed over without a pull.
                if not pulled and output is not None and not output.is_deferred:
                    stat = tracer._stat(
                        tracer._state(), f"query.physical.{op_name(op)}.blocks"
                    )
                    stat.add_count("records", len(output.records))

            return close

        self._patch(PhysicalOperator, "close", make_close)

        # Algorithms.
        def sort_details(stat, args, result, error):
            if result is not None:
                stat.add_count("runs_generated", result.runs_generated)
                stat.add_count("merge_passes", result.merge_passes)

        def join_details(stat, args, result, error):
            if result is not None:
                stat.add_count("matches", result.matches)

        def agg_details(stat, args, result, error):
            if result is not None:
                stat.add_count("spills", result.spills)

        self._wrap_call(
            SortAlgorithm, "sort",
            lambda algo: f"sorts.{algo.short_name}.sort", sort_details,
        )
        self._wrap_call(
            JoinAlgorithm, "join",
            lambda algo: f"joins.{algo.short_name}.join", join_details,
        )
        self._wrap_call(
            _AggregationBase, "aggregate",
            lambda algo: f"aggregation.{algo.short_name}.aggregate", agg_details,
        )

        # Runtime re-derivation and storage.
        self._wrap_iter(
            OperatorContext, "reconstruct",
            fixed("runtime.context.reconstruct"), sized=False,
        )
        self._wrap_iter(
            PersistentCollection, "scan_blocks",
            fixed("storage.collection.scan_blocks"),
        )

        def make_extend(original):
            def extend(collection, records):
                before = len(collection.records)
                span = tracer.enter("storage.collection.extend")
                try:
                    original(collection, records)
                finally:
                    stat = tracer.exit(span)
                added = len(collection.records) - before
                stat.add_count("records", added)
                if collection.is_materialized:
                    stat.add_count(
                        "blocks",
                        added * collection.schema.record_bytes
                        / collection.block_bytes,
                    )

            return extend

        self._patch(PersistentCollection, "extend", make_extend)

        def exhaustion(stat, args, result, error):
            if isinstance(error, BufferpoolExhaustedError):
                stat.add_count("exhausted", 1)

        self._wrap_call(
            Bufferpool, "reserve", fixed("storage.bufferpool.reserve"),
            exhaustion,
        )
        self._wrap_call(
            Bufferpool, "share", fixed("storage.bufferpool.share"), exhaustion
        )

        def backend_call(attr):
            return lambda backend: (
                f"pmem.backends.{type(backend).__name__.removesuffix('Backend')}"
                f".{attr}"
            )

        for attr in ("append_bulk", "read_bulk"):
            self._wrap_call(PersistenceBackend, attr, backend_call(attr))
        for attr in DEVICE_CALLS:
            self._wrap_device(PersistentMemoryDevice, attr)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Results.
    # ------------------------------------------------------------------ #
    def merged(self) -> dict[str, Stat]:
        """Every thread's aggregates, merged by span name."""
        merged: dict[str, Stat] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, stat in list(state.stats.items()):
                merged.setdefault(name, Stat()).merge(stat)
        return merged

    def worker_span_counts(self) -> tuple[int, int]:
        """``(spans, spans attached to a query)`` on non-client threads."""
        with self._lock:
            threads = [state for state in self._threads if not state.is_client]
        return (
            sum(state.spans for state in threads),
            sum(state.attached for state in threads),
        )
