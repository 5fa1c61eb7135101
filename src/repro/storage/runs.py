"""Sorted runs and multi-pass merging.

External sorting algorithms produce *runs*: sorted persistent collections
that a merge phase later combines.  :class:`RunSet` manages the run
collections for one sort, and :func:`merge_runs` performs the (possibly
multi-pass) k-way merge, charging every intermediate read and write to the
backend like the paper's merging phase does.  Both hand the runs they
write to the :class:`~repro.storage.collection.StoreOwner` of the sort's
run, which drops them when it ends.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from repro.exceptions import ConfigurationError
from repro.pmem.backends.base import PersistenceBackend
from repro.storage.collection import (
    CollectionStatus,
    PersistentCollection,
    StoreOwner,
)
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


class RunSet:
    """A named family of sorted run collections sharing one backend.

    Each new run is adopted by ``owner``, when one is given.
    """

    def __init__(
        self,
        backend: PersistenceBackend,
        schema: Schema = WISCONSIN_SCHEMA,
        prefix: str = "run",
        owner: StoreOwner | None = None,
    ) -> None:
        self.backend = backend
        self.schema = schema
        self.prefix = prefix
        self.owner = owner
        self._counter = itertools.count()
        self.runs: list[PersistentCollection] = []

    def new_run(self) -> PersistentCollection:
        """Create an empty materialized run collection."""
        run = PersistentCollection(
            name=f"{self.prefix}-{next(self._counter)}",
            backend=self.backend,
            schema=self.schema,
            status=CollectionStatus.MATERIALIZED,
        )
        if self.owner is not None:
            self.owner.adopt(run)
        self.runs.append(run)
        return run

    def write_sorted_run(self, records: Iterable[tuple]) -> PersistentCollection:
        """Materialize a complete sorted run from an iterable of records."""
        run = self.new_run()
        run.extend(records)
        run.seal()
        return run

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[PersistentCollection]:
        return iter(self.runs)


def merge_streams(
    streams: Iterable[Iterable[tuple]],
    key: Callable[[tuple], int],
) -> list[tuple]:
    """Stable merge of already-sorted record streams.

    The streams are read fully and concatenated in stream order, and
    ``list.sort`` merges them in C: timsort finds the sorted streams as
    runs.  The sort is stable, so records with equal keys keep stream
    order, then their order within the stream -- the ``(key,
    stream_index)`` tie-break of a heap merge, which the position-based
    tie-breaks of the write-limited sorts rely on.
    """
    merged = list(itertools.chain.from_iterable(streams))
    merged.sort(key=key)
    return merged


def merge_runs(
    runs: list[PersistentCollection],
    output: PersistentCollection,
    fan_in: int,
    backend: PersistenceBackend,
    schema: Schema = WISCONSIN_SCHEMA,
    key: Callable[[tuple], int] | None = None,
    owner: StoreOwner | None = None,
) -> int:
    """Merge sorted runs into ``output`` with at most ``fan_in`` inputs per pass.

    Intermediate passes write temporary runs through ``backend`` (and read
    them back), so the I/O profile matches the paper's ``logM |T|`` merge
    passes; ``owner`` adopts them.  The final pass streams into ``output``
    and seals it; an in-memory output (pipelined to a consumer) charges no
    writes.

    Returns:
        The number of merge passes performed (0 when a single empty or
        single-run input needed no merging work).
    """
    if fan_in < 2:
        raise ConfigurationError(f"merge fan-in must be at least 2, got {fan_in}")
    key_fn = key or schema.key

    if not runs:
        output.seal()
        return 0
    passes = 0
    current = list(runs)
    scratch = RunSet(
        backend, schema=schema, prefix=f"{output.name}-merge", owner=owner
    )
    while len(current) > fan_in:
        passes += 1
        next_level: list[PersistentCollection] = []
        for group_start in range(0, len(current), fan_in):
            group = current[group_start:group_start + fan_in]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            merged = scratch.new_run()
            merged.extend(
                merge_streams([run.scan() for run in group], key_fn)
            )
            merged.seal()
            next_level.append(merged)
        current = next_level
    passes += 1
    if len(current) == 1:
        # A single run: copy it to the output (read it, optionally write it).
        output.extend(current[0].scan())
    else:
        output.extend(merge_streams([run.scan() for run in current], key_fn))
    output.seal()
    return passes
