"""Sort kernels: the heap loops shared by the sorting algorithms.

Two structures appear throughout Section 2.1 of the paper:

* a *selection scan*, a bounded max-heap that retains the K smallest
  records after a threshold (the selection region of hybrid sort, the
  scans of selection sort and lazy sort), and
* classic *two-heap replacement selection* for run generation in external
  mergesort, the mergesort segment of segment sort and the
  replacement-selection region of hybrid sort.

Each is one function with its loop inlined over ``heapq``; the key
extractor is passed in once and never looked up per record.  Ties are
broken on input position, so records with equal keys have a strict total
order: a selection scan orders them by ``(key, position)`` -- which is what
guarantees that consecutive scans never select the same record twice --
and replacement selection by ``(key, arrival)``.  Replacement selection
keeps only keys in its heaps: whether a record joins the current run
depends on its key alone, and each run is its members, kept in arrival
order, stably sorted by key.

A third kernel, :func:`ranked_passes`, serves a whole sequence of
consecutive selection scans over one stable source from a single ranking,
and derives from that ranking the order in which any of those scans would
displace records: it computes once and charges per pass.  Selection sort,
segment sort and lazy sort draw every pass from it, over a MEMORY,
MATERIALIZED or DEFERRED source alike, so :func:`select_smallest` runs
only for hybrid sort's single pass.

Replacement selection's runs are a function of the records cut and the
workspace alone, so :func:`sorted_runs` is the derivation a sealed
collection keeps in its memo
(:meth:`~repro.storage.collection.PersistentCollection.derived`): external
mergesort and segment sort cut the runs of a sealed settled input once and
write them on every sort.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappushpop, heapreplace
from itertools import chain, islice
from operator import itemgetter, neg
from typing import Callable, Iterable, Iterator

from repro.exceptions import ConfigurationError


def _check_capacity(capacity: int) -> None:
    if capacity <= 0:
        raise ConfigurationError(f"heap capacity must be positive, got {capacity}")


def select_smallest(
    records: Iterable[tuple],
    capacity: int,
    key: Callable[[tuple], int],
    after: tuple[int, int] | None = None,
    displaced: Callable[[tuple], object] | None = None,
) -> tuple[list[tuple], tuple[int, int] | None]:
    """One selection scan: the ``capacity`` smallest records after ``after``.

    Records are ordered by ``(key, position)``, where position counts every
    record of the scan; those at or below the ``after`` threshold are
    skipped.  Heap entries are ``(-key, -position, record)``.  Once the heap
    is full each further record either evicts the current maximum or is
    itself rejected, and that record is passed to ``displaced`` when given
    (lazy sort's spill, hybrid sort's replacement region).

    Returns the retained records in ascending order and the ``(key,
    position)`` of the largest one -- the next scan's threshold -- or
    ``None`` when nothing was retained.
    """
    _check_capacity(capacity)
    low_key, low_position = after if after is not None else (float("-inf"), -1)
    heap: list[tuple[int, int, tuple]] = []
    scan = enumerate(records)
    for position, record in scan:
        record_key = key(record)
        if record_key < low_key or (
            record_key == low_key and position <= low_position
        ):
            continue
        heap.append((-record_key, -position, record))
        if len(heap) == capacity:
            break
    heapify(heap)
    largest = -heap[0][0] if heap else None
    # Positions only grow within a scan, so a record beats the retained
    # maximum exactly when its key is smaller; one that does not is past
    # the threshold, like the maximum before it.
    for position, record in scan:
        record_key = key(record)
        if record_key < largest:
            if record_key < low_key or (
                record_key == low_key and position <= low_position
            ):
                continue
            evicted = heapreplace(heap, (-record_key, -position, record))[2]
            largest = -heap[0][0]
            if displaced is not None:
                displaced(evicted)
        elif displaced is not None:
            displaced(record)
    if not heap:
        return [], None
    threshold = (-heap[0][0], -heap[0][1])
    heap.sort(reverse=True)
    return [record for _, _, record in heap], threshold


def ranked_passes(
    source,
    capacity: int,
    key: Callable[[tuple], int],
    start: int = 0,
    stop: int | None = None,
) -> Iterator[tuple[list[tuple], tuple[int, int], Callable[[], list[tuple]]]]:
    """Consecutive selection scans of ``source[start:stop]``, ranked once.

    Yields, pass after pass, exactly what :func:`select_smallest` returns
    when each scan resumes after the previous pass's threshold: the next
    ``capacity`` records in ``(key, position)`` order, ascending, and the
    ``(key, position)`` of the last of them.  So a caller may stop after
    any pass and continue with ``select_smallest(after=threshold)``.  The
    third item of each pass is a function that returns the records that
    scan's ``displaced`` callback would have received, in that order.

    The first pass reads the slice through ``source.scan_blocks`` and
    sorts its positions once by ``(key, position)`` -- a stable sort of the
    positions by key.  Each pass is then the next ``capacity`` positions of
    that order.  Every later pass is charged as a full rescan of the slice
    by ``source.charge_rescan(start, stop)``, which moves the same
    counters as draining ``source.scan_blocks(start, stop)`` would: the
    I/O profile is identical, only the Python CPU time changes.

    The displacement order is a function of the ranking too.  A scan
    resuming at offset ``o`` of the order sees the eligible records
    ``order[o:]`` arrive by position; it keeps ``order[o:o + capacity]``
    and displaces each later-ranked record at the step
    ``max(its position, the capacity-th smallest position among the
    eligible records ranked before it)``: on arrival if that many smaller
    records came first, else on the arrival of the one that completes
    them.  Walking the displaced records in rank order over a max-heap of
    the ``capacity`` smallest positions seen, seeded with the kept ones,
    one ``heappushpop`` per record yields its step.  Each arrival displaces
    exactly one record, so the steps are distinct and sorting by them
    gives the scan's displacement order.

    The ranked order is simulator bookkeeping over records the collection
    already holds as Python tuples, not modelled DRAM: the sort's
    workspace stays ``capacity`` records.  Every rescan of ``source``
    costs what the first did: a MATERIALIZED collection is charged its
    blocks again, a DEFERRED one replays its derivation once per pass.
    Nothing is read until the first pass is requested.
    """
    _check_capacity(capacity)
    records = list(chain.from_iterable(source.scan_blocks(start, stop)))
    keys = list(map(key, records))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fetch = records.__getitem__

    def displaced(kept: list[int], end: int) -> list[tuple]:
        heap = list(map(neg, kept))
        heapify(heap)
        later = order[end:]
        # Negated steps: the heap is a max-heap of positions.
        steps = list(map(partial(heappushpop, heap), map(neg, later)))
        by_step = sorted(range(len(steps)), key=steps.__getitem__, reverse=True)
        return list(map(fetch, map(later.__getitem__, by_step)))

    for offset in range(0, len(order), capacity):
        if offset:
            source.charge_rescan(start, stop)
        end = offset + capacity
        positions = order[offset:end]
        last = positions[-1]
        yield (
            list(map(fetch, positions)),
            (keys[last], last),
            partial(displaced, positions, end),
        )


def replacement_selection_runs(
    records: Iterable[tuple],
    capacity: int,
    key: Callable[[tuple], int],
) -> Iterator[list[tuple]]:
    """Two-heap replacement selection: yield each sorted run as a list.

    The first ``capacity`` records fill the current heap.  Every further
    record emits the smallest current key; it joins the current run when
    its key is not below the emitted one and is parked for the next run
    otherwise.  When the current heap empties the run closes and the
    parked records become current.  At the end the open run is completed
    and the parked records form one final run.  Runs are maximal -- on
    average twice the memory size for random inputs, the property the
    paper's Eq. 1 relies on.

    The heaps hold plain keys: membership is decided by keys alone, so the
    records themselves are only appended, in arrival order, to the run
    they join.  A closed run is its members stably sorted by key, which is
    exactly the ``(key, arrival)`` order a heap of ``(key, arrival,
    record)`` entries would emit.
    """
    _check_capacity(capacity)
    records = iter(records)
    members = list(islice(records, capacity))
    heap = list(map(key, members))
    heapify(heap)
    join = members.append
    parked: list[tuple] = []
    park = parked.append
    for record in records:
        record_key = key(record)
        if record_key >= heap[0]:
            heapreplace(heap, record_key)
            join(record)
            continue
        heappop(heap)
        park(record)
        if not heap:
            members.sort(key=key)
            yield members
            members, parked = parked, []
            join = members.append
            park = parked.append
            heap = list(map(key, members))
            heapify(heap)
    for run in (members, parked):
        if run:
            run.sort(key=key)
            yield run


def sorted_runs(
    records: list[tuple], stop: int, capacity: int, key_index: int
) -> list[list[tuple]]:
    """The runs :func:`replacement_selection_runs` cuts from ``records[:stop]``.

    Keyed on the schema's ``key_index``, not on a key extractor, so that
    every sort over one collection asks its memo for the same derivation.
    """
    return list(
        replacement_selection_runs(
            islice(records, stop), capacity, itemgetter(key_index)
        )
    )
