"""Tests for the sort/join input builders."""

import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.generator import load_collection, make_join_inputs, make_sort_input
from repro.storage.schema import WISCONSIN_SCHEMA


class TestLoadCollection:
    def test_loads_and_seals(self, backend):
        records = [WISCONSIN_SCHEMA.make_record(k) for k in range(10)]
        collection = load_collection(records, backend, "loaded")
        assert len(collection) == 10
        assert collection.is_sealed
        assert backend.stores() == [collection.store]
        assert collection.store.label == "loaded"

    def test_loading_charges_writes(self, backend, device):
        before = device.snapshot()
        load_collection(
            (WISCONSIN_SCHEMA.make_record(k) for k in range(100)), backend, "charged"
        )
        delta = device.snapshot() - before
        assert delta.cacheline_writes == pytest.approx(8000 / 64)


class TestSortInput:
    def test_size_and_key_domain(self, backend):
        collection = make_sort_input(500, backend, name="s500")
        assert len(collection) == 500
        assert sorted(collection.keys()) == list(range(500))

    def test_not_pre_sorted(self, backend):
        collection = make_sort_input(500, backend, name="unsorted")
        assert not collection.is_sorted()

    def test_zero_records(self, backend):
        collection = make_sort_input(0, backend, name="empty-input")
        assert len(collection) == 0

    def test_negative_records_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            make_sort_input(-5, backend)

    def test_seed_controls_order(self, backend):
        a = make_sort_input(300, backend, name="seed-a", seed=1)
        b = make_sort_input(300, backend, name="seed-b", seed=9)
        assert a.keys() != b.keys()
        assert sorted(a.keys()) == sorted(b.keys())


class TestJoinInputs:
    def test_cardinalities(self, backend):
        left, right = make_join_inputs(100, 1000, backend)
        assert len(left) == 100
        assert len(right) == 1000

    def test_fanout_is_uniform(self, backend):
        left, right = make_join_inputs(100, 1000, backend, left_name="fL", right_name="fR")
        counts = {}
        for record in right.records:
            counts[record[0]] = counts.get(record[0], 0) + 1
        assert set(counts.values()) == {10}

    def test_every_right_key_has_a_left_match(self, backend):
        left, right = make_join_inputs(50, 500, backend, left_name="mL", right_name="mR")
        left_keys = set(left.keys())
        assert all(record[0] in left_keys for record in right.records)

    def test_left_keys_are_distinct(self, backend):
        left, _ = make_join_inputs(64, 640, backend, left_name="dL", right_name="dR")
        assert len(set(left.keys())) == 64

    def test_empty_inputs_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            make_join_inputs(0, 100, backend)
        with pytest.raises(ConfigurationError):
            make_join_inputs(100, 0, backend)
