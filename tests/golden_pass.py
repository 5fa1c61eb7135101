"""One observed pass over every golden case.

The exact-I/O goldens (``golden_io/{sorts,joins,deferred}.json``) and the
CLI goldens run each of their cases once per session, through
:func:`observed_pass`, and compare what it returned.  Two observers watch
every case's run, and ``test_storage/test_batched_io.py`` asserts on what
they saw:

* a scan observer records each materialized or deferred ``scan_blocks``
  a case creates, iterated or not, and whether it ran to exhaustion;
* a store observer records each store created while an algorithm run
  (``Algorithm._run``) or a query (``ShardedQueryExecutor.execute``) ran,
  and, when the case returns, lists those still on their backend other
  than a result's output store.  Stores are compared by handle, so two
  stores under one label can never stand in for each other.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import pytest

from repro.cli import main
from repro.pmem.backends.base import PersistenceBackend
from repro.shard.executor import ShardedQueryExecutor
from repro.storage.algorithm import Algorithm
from repro.storage.collection import PersistentCollection


@dataclass
class Observation:
    """What one golden case returned, and what the observers saw."""

    returned: object
    #: What the case raised, if it raised: only its own test fails.
    error: Exception | None = None
    #: One ``{"collection", "deferred", "exhausted"}`` entry per scan.
    scans: list = field(default_factory=list)
    #: Labels of the stores a run or a query created that outlived the
    #: case, results' outputs excepted.
    leftover: list = field(default_factory=list)
    #: Handles of every store a run or a query created, in creation order
    #: (a dropped store's stats as of its drop).
    created: list = field(default_factory=list)

    @property
    def value(self):
        """The case's return value (its golden payload); re-raises its error."""
        if self.error is not None:
            raise self.error
        return self.returned


def observe(run, *args) -> Observation:
    """``run(*args)`` under the scan and store observers."""
    scans = []
    created = []
    kept = set()
    running = 0
    scan_blocks = PersistentCollection.scan_blocks
    create_store = PersistenceBackend.create_store

    def spy_scan(collection, start=0, stop=None):
        # Not a generator itself: a scan is recorded when it is created,
        # so one that is never iterated is seen too.
        blocks = scan_blocks(collection, start, stop)
        if collection.is_memory:
            return blocks
        scan = {
            "collection": collection.name,
            "deferred": collection.is_deferred,
            "exhausted": False,
        }
        scans.append(scan)

        def follow():
            yield from blocks
            scan["exhausted"] = True

        return follow()

    def spy_create(backend, label):
        store = create_store(backend, label)
        if running:
            created.append((backend, store))
        return store

    def owning(method):
        def spy_run(self, *run_args, **kwargs):
            nonlocal running
            running += 1
            try:
                result = method(self, *run_args, **kwargs)
            finally:
                running -= 1
            if result.output.store is not None:
                kept.add(result.output.store)
            return result

        return spy_run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PersistentCollection, "scan_blocks", spy_scan)
        patch.setattr(PersistenceBackend, "create_store", spy_create)
        patch.setattr(Algorithm, "_run", owning(Algorithm._run))
        patch.setattr(
            ShardedQueryExecutor,
            "execute",
            owning(ShardedQueryExecutor.execute),
        )
        try:
            returned, error = run(*args), None
        except Exception as raised:
            returned, error = None, raised
    leftover = [
        store.label
        for backend, store in created
        if store not in kept and store in backend.stores()
    ]
    return Observation(
        returned, error, scans, leftover, [store for _, store in created]
    )


def cli_output(*args: str) -> str:
    """What ``python -m repro *args`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(args)) == 0
    return out.getvalue()


_PASSES: dict = {}


def observed_pass(family: str, cases, run) -> dict:
    """``{case: Observation}`` for every case of ``family``, each run once
    per session (``run(*case)``)."""
    if family not in _PASSES:
        _PASSES[family] = {case: observe(run, *case) for case in cases}
    return _PASSES[family]
