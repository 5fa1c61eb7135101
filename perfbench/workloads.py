"""The benchmark's four workloads: seeded inputs, query mixes and oracles.

A workload generates its records in plain Python from the seed and hands
``repro`` nothing but those records.  The expected output of every query
shape is computed from the same records without ``repro``; a query whose
output differs from it counts as failed.

Single-client workloads run *rounds*: a seeded shuffle of the workload's
slot list, one ``Session.query`` call per slot, so every round holds the
shapes in the same proportion and the latency median never sits on the
boundary between two shapes.  Each query is a unit of work of its own, and
a run ends between rounds.  ``concurrent_shards`` runs *batches* of nine
``Session.submit`` calls, waited for together; a batch is a unit and a
round.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass

from repro.pmem.backends import make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.pmem.latency import LatencyModel
from repro.query import Query
from repro.session import Session
from repro.shard import ShardSet
from repro.shard.collection import ShardedCollection
from repro.shard.partition import HashPartitioner
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA as SCHEMA
from repro.workload_mgmt import QueryStatus

#: Device latencies per cacheline: read 10 ns, write 150 ns (lambda = 15).
READ_NS, WRITE_NS = 10.0, 150.0

#: Smallest budget a low-memory workload gets: four 1 KiB device blocks.
MIN_BUDGET_BYTES = 4 * 1024


# --------------------------------------------------------------------- #
# Input generation.
# --------------------------------------------------------------------- #
def permuted_records(count: int, rng: random.Random) -> list[tuple]:
    """Wisconsin records for the keys ``0..count-1`` in a seeded order."""
    keys = list(range(count))
    rng.shuffle(keys)
    return [SCHEMA.make_record(key) for key in keys]


def uniform_records(count: int, domain: int, rng: random.Random) -> list[tuple]:
    """``count`` records whose keys are drawn uniformly from ``0..domain-1``."""
    return [SCHEMA.make_record(rng.randrange(domain)) for _ in range(count)]


def popularity_order(domain: int) -> list[int]:
    """Keys ``0..domain-1`` from most to least popular.

    The order is the same for every seed: the seed draws the skewed keys
    and shuffles the inputs, but which keys are hot stays fixed, so the
    filter in front of the join keeps the same share of the skewed side
    and the simulated I/O barely moves from seed to seed.
    """
    keys = list(range(domain))
    random.Random(0).shuffle(keys)
    return keys


def zipf_keys(
    count: int, rank_to_key: list[int], exponent: float, rng: random.Random
) -> list[int]:
    """``count`` keys whose ranks follow a Zipf law with ``exponent``."""
    cumulative = list(
        itertools.accumulate(
            1.0 / (rank + 1) ** exponent for rank in range(len(rank_to_key))
        )
    )
    total = cumulative[-1]
    return [
        rank_to_key[bisect.bisect_left(cumulative, rng.random() * total)]
        for _ in range(count)
    ]


# --------------------------------------------------------------------- #
# The oracle.
# --------------------------------------------------------------------- #
def bag(records) -> tuple[int, int]:
    """An order-insensitive digest of a record list: count and hash sum."""
    return len(records), sum(map(hash, records))


class Expected:
    """The oracle's answer for one query shape.

    ``ordered`` answers (sorts) compare record by record; the others
    compare as multisets, by :func:`bag` digest.
    """

    def __init__(self, records, ordered: bool) -> None:
        self.ordered = ordered
        self.answer = list(records) if ordered else bag(records)

    def matches(self, records) -> bool:
        if self.ordered:
            return list(records) == self.answer
        return bag(records) == self.answer


def expected_groups(records, group_index: int, aggregates) -> list[tuple]:
    """Grouped ``count``/``sum`` aggregates, laid out as ``repro`` does:
    the group value, then one field per aggregate in spec order."""
    state: dict[int, list[int]] = {}
    for record in records:
        acc = state.get(record[group_index])
        if acc is None:
            acc = state[record[group_index]] = [0] * len(aggregates)
        for index, (name, attribute) in enumerate(aggregates):
            acc[index] += 1 if name == "count" else record[attribute]
    return [(group, *acc) for group, acc in state.items()]


def expected_join(left, right) -> list[tuple]:
    """Key equi-join of a unique-keyed ``left`` with ``right``."""
    by_key = {record[0]: record for record in left}
    return [by_key[record[0]] + record for record in right if record[0] in by_key]


def key_below(bound: int):
    return lambda record: record[0] < bound


def key_multiple_of(divisor: int):
    return lambda record: record[0] % divisor == 0


# --------------------------------------------------------------------- #
# Measured queries.
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One attempted query as the client saw it."""

    shape: str
    #: Wall seconds from submit to result.
    latency_s: float
    #: Completed with the oracle's answer.
    ok: bool
    error: str | None = None
    #: The query's own simulated I/O (``IOSnapshot``), when it completed.
    io: object = None
    #: The query's share of the busiest device's simulated time.
    makespan_ns: float = 0.0
    records: int = 0
    #: Physical operators the planner chose, in plan order.
    operators: tuple = ()


def plan_operators(plan) -> tuple[str, ...]:
    """The chosen physical operators of a single-device or sharded plan."""
    if not getattr(plan, "is_sharded_plan", False):
        return tuple(node.operator for node in plan.root.walk())
    operators = []
    for step in plan.steps:
        fragments = getattr(step, "fragments", None)
        if fragments is None:
            operators.append("Exchange")
            continue
        for shard, fragment in enumerate(fragments):
            operators.extend(
                f"{node.operator}@{shard}" for node in fragment.root.walk()
            )
    return tuple(operators)


def judge(shape, result, latency_s, expected: Expected, makespan_ns) -> Outcome:
    records = result.records
    try:
        ok = expected.matches(records)
    except TypeError:  # an unhashable or malformed record
        ok = False
    return Outcome(
        shape,
        latency_s,
        ok,
        error=None if ok else "output differs from the oracle",
        io=result.io,
        makespan_ns=makespan_ns,
        records=len(records),
        operators=plan_operators(result.plan),
    )


class Workload:
    """Inputs, queries and oracle of one named workload.

    Setting up is ``generate()`` (plain-Python records), ``load()``
    (device, session and collections) and ``warmup_rounds`` calls of
    :meth:`run_round`; :meth:`oracle` computes every shape's expected
    output from the generated records.
    """

    name = ""
    warmup_rounds = 1

    def __init__(self, seed: int, *, scale: float = 1.0, zipf: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.zipf = zipf
        self.session: Session | None = None
        self.queries: dict = {}
        self.expected: dict[str, Expected] = {}
        self.input_bytes = 0

    def size(self, count: int) -> int:
        """``count`` scaled by ``--scale``, at least 1."""
        return max(1, int(count * self.scale))

    def generate(self) -> dict[str, list[tuple]]:
        raise NotImplementedError

    def load(self, data: dict[str, list[tuple]]) -> None:
        raise NotImplementedError

    def oracle(self, data: dict[str, list[tuple]]) -> dict[str, Expected]:
        raise NotImplementedError

    def run_unit(self, rng: random.Random) -> tuple[list[Outcome], float, list[float]]:
        """Run one query of the current round, or one batch.

        Returns its outcomes, the wall seconds the client spent waiting on
        the system, and the latency samples (seconds) it contributes.
        """
        raise NotImplementedError

    @property
    def between_rounds(self) -> bool:
        """Whether the last unit completed a round."""
        return True

    def run_round(self, rng: random.Random) -> list[Outcome]:
        """Run units up to the end of a round; return their outcomes."""
        outcomes = self.run_unit(rng)[0]
        while not self.between_rounds:
            outcomes.extend(self.run_unit(rng)[0])
        return outcomes

    def allocated_bytes(self) -> int:
        return sum(device.allocated_bytes for device in self.session.devices)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def open_session(self, data, budget_bytes: int) -> None:
        """Open a session on one fresh device; record the input size."""
        device = PersistentMemoryDevice(LatencyModel(READ_NS, WRITE_NS))
        backend = make_backend("blocked_memory", device)
        self.session = Session(backend, MemoryBudget(budget_bytes))
        self.input_bytes = SCHEMA.record_bytes * sum(map(len, data.values()))


class SequentialWorkload(Workload):
    """One client sending ``Session.query`` calls back to back."""

    #: Shapes of one round, repeated in proportion to their weight.
    slots: tuple[str, ...] = ()

    def __init__(self, seed: int, **options) -> None:
        super().__init__(seed, **options)
        #: Shapes of the current round still to run, the next one last.
        self.round: list[str] = []

    @property
    def between_rounds(self) -> bool:
        return not self.round

    def run_unit(self, rng):
        if not self.round:
            self.round = list(self.slots)
            rng.shuffle(self.round)
            self.round.reverse()
        shape = self.round.pop()
        started = time.perf_counter()
        try:
            result = self.session.query(self.queries[shape])
        except Exception as error:  # counted as a failed query
            elapsed = time.perf_counter() - started
            outcome = Outcome(shape, elapsed, False, error=repr(error))
        else:
            elapsed = time.perf_counter() - started
            outcome = judge(
                shape, result, elapsed, self.expected[shape], result.io.total_ns
            )
        return [outcome], elapsed, [elapsed]


class SmallQueries(SequentialWorkload):
    name = "small_queries"
    #: Filters twice, so no cumulative share of the mix is exactly one half.
    slots = ("filter", "filter", "filter_project", "groupby", "join")
    warmup_rounds = 4

    def generate(self):
        rng = random.Random(self.seed)
        left = self.size(500)
        return {
            "T": permuted_records(self.size(5000), rng),
            "L": permuted_records(left, rng),
            "R": uniform_records(self.size(5000), left, rng),
        }

    def load(self, data):
        self.open_session(data, 8 << 20)
        session = self.session
        t = session.create_collection("T", records=data["T"])
        left = session.create_collection("L", records=data["L"])
        right = session.create_collection("R", records=data["R"])
        selected = Query.scan(t).filter(key_below(len(data["T"]) // 10), 0.1)
        self.queries = {
            "filter": selected,
            "filter_project": selected.project(0, 2),
            "groupby": Query.scan(t).group_by(
                2, {"count": 0, "sum": 1}, estimated_groups=31
            ),
            "join": Query.scan(left).join(Query.scan(right)),
        }

    def oracle(self, data):
        t = data["T"]
        selected = [r for r in t if r[0] < len(t) // 10]
        return {
            "filter": Expected(selected, ordered=False),
            "filter_project": Expected(
                [(r[0], r[2]) for r in selected], ordered=False
            ),
            "groupby": Expected(
                expected_groups(t, 2, [("count", 0), ("sum", 1)]), ordered=False
            ),
            "join": Expected(expected_join(data["L"], data["R"]), ordered=False),
        }


class LowmemSort(SequentialWorkload):
    name = "lowmem_sort"
    #: The sort three times: the three shapes' latencies lie within a
    #: third of each other, so with one slot each the median would fall
    #: wherever their spreads overlap; this way it falls among the sorts.
    slots = ("sort", "sort", "sort", "filter_sort", "groupby_spill")

    def generate(self):
        return {"T": permuted_records(self.size(100_000), random.Random(self.seed))}

    def load(self, data):
        t_bytes = SCHEMA.record_bytes * len(data["T"])
        self.open_session(data, max(t_bytes // 50, MIN_BUDGET_BYTES))
        t = self.session.create_collection("T", records=data["T"])
        self.queries = {
            "sort": Query.scan(t).order_by(),
            "filter_sort": Query.scan(t).filter(key_multiple_of(2), 0.5).order_by(),
            # Attribute 9 holds key // 10: far more groups than declared.
            "groupby_spill": Query.scan(t).group_by(
                9, {"count": 0, "sum": 1}, estimated_groups=200
            ),
        }

    def oracle(self, data):
        ordered = sorted(data["T"])
        return {
            "sort": Expected(ordered, ordered=True),
            "filter_sort": Expected(
                [r for r in ordered if r[0] % 2 == 0], ordered=True
            ),
            "groupby_spill": Expected(
                expected_groups(data["T"], 9, [("count", 0), ("sum", 1)]),
                ordered=False,
            ),
        }


class LowmemJoin(SequentialWorkload):
    name = "lowmem_join"
    slots = ("filter_join_groupby",)
    warmup_rounds = 2

    def generate(self):
        rng = random.Random(self.seed)
        count = self.size(10_000)
        t = permuted_records(count, rng)
        keys = zipf_keys(10 * count, popularity_order(count), self.zipf, rng)
        return {"T": t, "V": [SCHEMA.make_record(key) for key in keys]}

    def load(self, data):
        t_bytes = SCHEMA.record_bytes * len(data["T"])
        self.open_session(data, max(t_bytes // 200, MIN_BUDGET_BYTES))
        t = self.session.create_collection("T", records=data["T"])
        v = self.session.create_collection("V", records=data["V"])
        self.queries = {
            # Declared as if every filtered key matched: the uniform guess.
            "filter_join_groupby": Query.scan(t)
            .filter(key_multiple_of(4), 0.25)
            .join(Query.scan(v))
            .group_by(0, {"count": 0}, estimated_groups=len(data["T"]) // 4),
        }

    def oracle(self, data):
        matches = Counter(r[0] for r in data["V"] if r[0] % 4 == 0)
        return {
            "filter_join_groupby": Expected(list(matches.items()), ordered=False)
        }


class ConcurrentShards(Workload):
    name = "concurrent_shards"
    #: Every query asks for this much DRAM; the budget holds three shares.
    share_bytes = 64 * 1024
    max_concurrent = 3

    def generate(self):
        rng = random.Random(self.seed)
        left = self.size(1000)
        return {
            "S": permuted_records(self.size(10_000), rng),
            "L": permuted_records(left, rng),
            "R": uniform_records(self.size(10_000), left, rng),
            "P0": permuted_records(self.size(2000), rng),
            "P1": permuted_records(self.size(2000), rng),
        }

    def load(self, data):
        shard_set = ShardSet.create(2, read_ns=READ_NS, write_ns=WRITE_NS)
        self.session = Session(
            shard_set, MemoryBudget(self.max_concurrent * self.share_bytes)
        )

        def sharded(name, records, partitioner=None):
            collection = ShardedCollection(name, shard_set, partitioner=partitioner)
            collection.extend(records)
            collection.seal()
            return collection

        def plain(name, records, shard):
            collection = PersistentCollection(
                name=name, backend=shard_set.backends[shard], schema=SCHEMA
            )
            collection.extend(records)
            collection.seal()
            return collection

        s = sharded("S", data["S"])
        left = sharded("L", data["L"])
        right = sharded("R", data["R"])
        # The same records, partitioned on attribute 1: joining them on the
        # key needs a repartition exchange.
        right_by_attr1 = sharded(
            "RX", data["R"], HashPartitioner(2, key_index=1)
        )
        p0, p1 = plain("P0", data["P0"], 0), plain("P1", data["P1"], 1)
        self.input_bytes = SCHEMA.record_bytes * (
            sum(map(len, data.values())) + len(data["R"])
        )
        half_s = len(data["S"]) // 2
        half_p = len(data["P0"]) // 2
        self.queries = {
            "shard_sort": Query.scan(s).order_by(),
            "shard_join": Query.scan(left).join(Query.scan(right)),
            "shard_repartition_join": Query.scan(left).join(
                Query.scan(right_by_attr1)
            ),
            "shard_groupby": Query.scan(s).group_by(
                1, {"count": 0, "sum": 2}, estimated_groups=half_s
            ),
            "shard_filter_sort": Query.scan(s)
            .filter(key_below(half_s), 0.5)
            .order_by(),
            "p0_filter": Query.scan(p0).filter(key_below(half_p), 0.5),
            "p1_filter": Query.scan(p1).filter(key_below(half_p), 0.5),
            "p0_groupby": Query.scan(p0).group_by(
                2, {"count": 0, "sum": 1}, estimated_groups=31
            ),
            "p1_groupby": Query.scan(p1).group_by(
                2, {"count": 0, "sum": 1}, estimated_groups=31
            ),
        }

    def oracle(self, data):
        s = data["S"]
        ordered = sorted(s)
        join = expected_join(data["L"], data["R"])
        spec = [("count", 0), ("sum", 1)]
        expected = {
            "shard_sort": Expected(ordered, ordered=True),
            "shard_join": Expected(join, ordered=False),
            "shard_repartition_join": Expected(join, ordered=False),
            "shard_groupby": Expected(
                expected_groups(s, 1, [("count", 0), ("sum", 2)]), ordered=False
            ),
            "shard_filter_sort": Expected(
                [r for r in ordered if r[0] < len(s) // 2], ordered=True
            ),
        }
        for name in ("P0", "P1"):
            records = data[name]
            half = len(records) // 2
            prefix = name.lower()
            expected[f"{prefix}_filter"] = Expected(
                [r for r in records if r[0] < half], ordered=False
            )
            expected[f"{prefix}_groupby"] = Expected(
                expected_groups(records, 2, spec), ordered=False
            )
        return expected

    def run_unit(self, rng):
        items = list(self.queries.items())
        rng.shuffle(items)
        busy_before = self.session.scheduler.device_busy_ns()
        started = time.perf_counter()
        # Submitted one by one rather than through ``run_workload``, whose
        # start loop can dispatch a query a second time when a finishing
        # query admits it from the worker thread at the same moment; the
        # second run then fails on the released share.
        handles = [
            self.session.submit(
                query, tag=shape, memory_bytes=self.share_bytes, policy="queue"
            )
            for shape, query in items
        ]
        for handle in handles:
            handle.wait()
        elapsed = time.perf_counter() - started
        busy = [
            after - before
            for after, before in zip(
                self.session.scheduler.device_busy_ns(), busy_before
            )
        ]
        # The client gets every result when the batch is done, so each
        # query's latency is the batch's and the batch is one latency
        # sample; the busiest device's time is split evenly.
        makespan = max(busy) / len(handles)
        outcomes = []
        for handle in handles:
            if handle.status is QueryStatus.DONE:
                outcomes.append(
                    judge(
                        handle.tag, handle.result(), elapsed,
                        self.expected[handle.tag], makespan,
                    )
                )
            else:
                outcomes.append(
                    Outcome(
                        handle.tag, elapsed, False,
                        error=f"{handle.status.value}: {handle.error!r}",
                    )
                )
        return outcomes, elapsed, [elapsed]


WORKLOADS = {
    workload.name: workload
    for workload in (SmallQueries, LowmemSort, LowmemJoin, ConcurrentShards)
}
