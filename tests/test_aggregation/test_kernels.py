"""Differential and structural tests for the generated aggregation kernels.

The operators run kernels compiled once per ``(aggregate spec, group
attribute)`` (:mod:`repro.aggregation.kernels`).  The references below are
the per-record loops those kernels replaced, kept here: each group's
states start at ``initial()``, every record is folded in with ``step``
and the output is built with ``final``; SortAgg appends group by group and
HashAgg recurses into its spill partitions.  A settled empty input
reaches neither: the aggregation base's emptiness gate answers it.  Both
sides run on devices of their own (every backend), so output, ``groups``,
``spills``, ``details`` and the exact ``IOSnapshot`` are compared.
"""

from __future__ import annotations

import gc
import math
import weakref
from functools import partial
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.aggregation.kernels as kernels_module
from repro.aggregation import HashAggregation, SortedAggregation
from repro.aggregation.functions import AGGREGATE_REGISTRY
from repro.aggregation.operators import AggregationResult, _Spill
from repro.joins.common import partition_into
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.device import PersistentMemoryDevice
from repro.query import SORT_ALTERNATIVES
from repro.sorts import SelectionSort
from repro.storage.bufferpool import MemoryBudget
from repro.storage.collection import PersistentCollection
from repro.storage.schema import Schema

from tests.conftest import build_collection

#: Every sort: the planner's alternatives, and selection sort.
SORTS = {**SORT_ALTERNATIVES, "SelS": SelectionSort}

#: Narrow records keep the budgets (and so the spill trees) small.
SCHEMA = Schema(num_fields=4, field_bytes=16)


def fresh_states(aggregates):
    return [aggregate.initial() for aggregate, _ in aggregates]


def fold(aggregates, states, record):
    for slot, (aggregate, attribute) in enumerate(aggregates):
        states[slot] = aggregate.step(states[slot], record[attribute])


def finalize(aggregates, key, states):
    return tuple(
        [key]
        + [aggregate.final(state) for state, (aggregate, _) in zip(states, aggregates)]
    )


class ReferenceSortedAggregation(SortedAggregation):
    """SortAgg with the per-record group loop."""

    def _execute(self, output, collection):
        if len(collection) == 0:
            output.seal()
            return AggregationResult(output=output, io=None)
        group_schema = Schema(
            num_fields=self.schema.num_fields,
            field_bytes=self.schema.field_bytes,
            key_index=self.group_index,
        )
        sorter = self.sort_class(
            self.backend,
            self.budget,
            schema=group_schema,
            materialize_output=False,
        )
        sort_result = sorter.sort(collection)
        aggregates = self.aggregates
        current_key = states = None
        groups = 0
        for record in sort_result.output.scan():
            key = record[self.group_index]
            if key != current_key:
                if states is not None:
                    output.extend([finalize(aggregates, current_key, states)])
                    groups += 1
                current_key = key
                states = fresh_states(aggregates)
            fold(aggregates, states, record)
        if states is not None:
            output.extend([finalize(aggregates, current_key, states)])
            groups += 1
        output.seal()
        return AggregationResult(
            output=output,
            io=None,
            groups=groups,
            details={
                "sort": sorter.short_name,
                "sort_runs": sort_result.runs_generated,
                "sort_scans": sort_result.input_scans,
            },
        )


class ReferenceHashAggregation(HashAggregation):
    """HashAgg with the per-record fold and a recursion over its spills."""

    def _execute(self, output, collection):
        max_groups = max(1, self.budget.nbytes // self.GROUP_STATE_BYTES)
        aggregates = self.aggregates
        group_index = self.group_index
        spills = 0

        def aggregate_stream(source, label, depth, limit):
            nonlocal spills
            table = {}

            def overflow():
                for block in source.scan_blocks():
                    spilled = []
                    for record in block:
                        key = record[group_index]
                        states = table.get(key)
                        if states is None:
                            if len(table) >= limit:
                                spilled.append(record)
                                continue
                            states = table[key] = fresh_states(aggregates)
                        fold(aggregates, states, record)
                    yield spilled

            targets = [
                _Spill(
                    partial(
                        self._scratch_collection,
                        f"{collection.name}-hashagg-spill-{depth}-{label}-{index}",
                        self.schema,
                    )
                )
                for index in range(self.SPILL_PARTITIONS)
            ]
            spilled_records = sum(
                partition_into(overflow(), itemgetter(group_index), targets)
            )
            output.extend(
                [finalize(aggregates, key, table[key]) for key in sorted(table)]
            )
            emitted = len(table)
            for index, target in enumerate(targets):
                partition = target.collection
                if partition is None:
                    continue
                spills += 1
                partition.seal()
                degenerate = depth >= 8 or len(partition) >= spilled_records
                emitted += aggregate_stream(
                    partition,
                    f"{label}.{index}",
                    depth + 1,
                    math.inf if degenerate else max_groups,
                )
            return emitted

        groups = aggregate_stream(collection, "root", 0, max_groups)
        output.seal()
        return AggregationResult(
            output=output,
            io=None,
            groups=groups,
            spills=spills,
            details={"max_groups_in_memory": max_groups},
        )


REFERENCES = {
    SortedAggregation: ReferenceSortedAggregation,
    HashAggregation: ReferenceHashAggregation,
}


def run(operator_class, rows, budget_bytes, backend_name="blocked_memory", **kwargs):
    """Aggregate ``rows`` on a fresh device; the result and its backend."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    collection = PersistentCollection(name="agg-in", backend=backend, schema=SCHEMA)
    collection.extend(rows)
    collection.seal()
    operator = operator_class(
        backend, MemoryBudget(budget_bytes), schema=SCHEMA, **kwargs
    )
    return operator.aggregate(collection), backend


def assert_matches_reference(operator_class, rows, budget_bytes, **kwargs):
    result, backend = run(operator_class, rows, budget_bytes, **kwargs)
    expected, expected_backend = run(
        REFERENCES[operator_class], rows, budget_bytes, **kwargs
    )
    assert result.output.records == expected.output.records
    assert result.output.name == expected.output.name
    assert result.groups == expected.groups
    assert result.spills == expected.spills
    assert result.details == expected.details
    assert result.io == expected.io
    assert backend.device.snapshot() == expected_backend.device.snapshot()
    return result


#: Mostly a handful of distinct values, so groups repeat heavily.
values = st.one_of(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-40, max_value=40)
)
rows_strategy = st.lists(st.tuples(values, values, values, values), max_size=120)
specs = st.lists(
    st.tuples(
        st.sampled_from(sorted(AGGREGATE_REGISTRY)),
        st.integers(min_value=0, max_value=SCHEMA.num_fields - 1),
    ),
    min_size=1,
    max_size=5,
    unique_by=itemgetter(0),
).map(dict)
group_attributes = st.integers(min_value=0, max_value=SCHEMA.num_fields - 1)
backend_names = st.sampled_from(sorted(BACKEND_REGISTRY))


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=rows_strategy,
        spec=specs,
        group_index=group_attributes,
        # 64-byte group states: from one group in DRAM to every group.
        budget_bytes=st.sampled_from([64, 128, 192, 320, 4096]),
        backend_name=backend_names,
    )
    def test_hash_aggregation(self, rows, spec, group_index, budget_bytes, backend_name):
        assert_matches_reference(
            HashAggregation,
            rows,
            budget_bytes,
            backend_name=backend_name,
            group_index=group_index,
            aggregates=spec,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=rows_strategy,
        spec=specs,
        group_index=group_attributes,
        sort_name=st.sampled_from(sorted(SORTS)),
        budget_records=st.sampled_from([6, 16, 200]),
        backend_name=backend_names,
    )
    def test_sorted_aggregation(
        self, rows, spec, group_index, sort_name, budget_records, backend_name
    ):
        assert_matches_reference(
            SortedAggregation,
            rows,
            budget_records * SCHEMA.record_bytes,
            backend_name=backend_name,
            group_index=group_index,
            aggregates=spec,
            sort_class=SORTS[sort_name],
        )

    @pytest.mark.parametrize("sort_name", sorted(SORTS))
    def test_sorted_aggregation_over_every_sort(self, sort_name):
        rows = [((i * 37) % 101 - 50, i % 7 - 3, -i, i * i) for i in range(900)]
        result = assert_matches_reference(
            SortedAggregation,
            rows,
            40 * SCHEMA.record_bytes,
            group_index=0,
            aggregates={"avg": 1, "min": 2, "max": 3, "count": 0, "sum": 0},
            sort_class=SORTS[sort_name],
        )
        assert result.groups == 101

    @pytest.mark.parametrize("operator_class", [SortedAggregation, HashAggregation])
    @pytest.mark.parametrize("name", sorted(AGGREGATE_REGISTRY))
    def test_each_aggregate_alone_and_on_the_group_attribute(
        self, operator_class, name
    ):
        rows = [(i % 13 - 6, -i, i % 5, 7) for i in range(300)]
        for attribute in (0, 1):
            assert_matches_reference(
                operator_class, rows, 512, group_index=0, aggregates={name: attribute}
            )

    @pytest.mark.parametrize("operator_class", [SortedAggregation, HashAggregation])
    def test_empty_input(self, operator_class):
        result = assert_matches_reference(
            operator_class, [], 512, aggregates={"count": 0, "avg": 1}
        )
        assert result.groups == 0

    def test_spills_deeper_than_one_level(self, monkeypatch):
        created = []
        create_store = PersistenceBackend.create_store

        def spy(backend, store_id):
            created.append(store_id)
            return create_store(backend, store_id)

        # Spills are scratch, dropped when the run ends: read the depths
        # from the stores the run created.
        monkeypatch.setattr(PersistenceBackend, "create_store", spy)
        rows = [(key % 300, key, -key, 1) for key in range(1200)]
        result = assert_matches_reference(
            HashAggregation, rows, 64, aggregates={"count": 0, "sum": 1, "min": 2}
        )
        assert result.groups == 300
        assert result.spills > HashAggregation.SPILL_PARTITIONS
        depths = {
            int(name.split("-hashagg-spill-")[1].split("-")[0])
            for name in created
            if "-hashagg-spill-" in name
        }
        # Spill partitions written by a pass over a spill partition.
        assert max(depths) >= 1

    def test_degenerate_one_group_split(self):
        # With one group in DRAM, every record of the second key spills,
        # all into one partition: the split is degenerate and that
        # partition is finished in memory instead of split again.
        rows = [(key, position, 0, 0) for position, key in enumerate([3, 9] * 50)]
        result = assert_matches_reference(
            HashAggregation, rows, 64, aggregates={"count": 0, "max": 1}
        )
        assert result.spills == 1
        assert result.output.records == [(3, 50, 98), (9, 50, 99)]


class TestCompileOnce:
    def test_an_already_seen_spec_compiles_nothing(self, backend, monkeypatch):
        # An empty cache, and a spy that counts only this spec's kernels:
        # neither one an earlier test left cached nor one compiled on a
        # leftover worker thread can move the counts.
        kernels_module.compile_kernels.cache_clear()
        budget = MemoryBudget.from_records(20)
        spec = {"max": 2, "count": 0, "avg": 3}
        prefix = f"<aggregation kernels {tuple(spec.items())!r} by "
        first = HashAggregation(backend, budget, group_index=1, aggregates=spec)
        compiled = []

        def spy(code, *args):
            if code.co_filename.startswith(prefix):
                compiled.append(code.co_filename)
            return exec(code, *args)

        monkeypatch.setattr(kernels_module, "exec", spy, raising=False)
        for operator_class in (HashAggregation, SortedAggregation):
            for _ in range(3):
                operator = operator_class(
                    backend, budget, group_index=1, aggregates=dict(spec)
                )
                assert operator.kernels is first.kernels
        assert compiled == []
        # A new spec or group attribute is compiled, exactly once.
        HashAggregation(backend, budget, group_index=2, aggregates=spec)
        SortedAggregation(backend, budget, group_index=2, aggregates=spec)
        assert compiled == [prefix + "2>"]

    def test_the_cache_is_bounded(self):
        assert kernels_module.compile_kernels.cache_info().maxsize == (
            kernels_module.KERNEL_CACHE_SIZE
        )


class TestHashAggregationBugfixes:
    @pytest.mark.parametrize("budget_records", [20, 5000])
    def test_freed_by_refcounting_once_the_result_is_dropped(
        self, backend, budget_records
    ):
        data = build_collection(
            backend, [key % 300 for key in range(3000)], name="cycle-free"
        )
        operator = HashAggregation(backend, MemoryBudget.from_records(budget_records))
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = operator.aggregate(data)
            assert result.groups == 300
            alive = [weakref.ref(obj) for obj in (data, result.output, operator)]
            del data, result, operator
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
