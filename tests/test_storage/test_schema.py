"""Tests for record schemas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.storage.schema import Schema, WISCONSIN_SCHEMA


class TestWisconsinSchema:
    def test_paper_record_size_is_80_bytes(self):
        assert WISCONSIN_SCHEMA.record_bytes == 80

    def test_ten_attributes(self):
        assert WISCONSIN_SCHEMA.num_fields == 10

    def test_key_is_first_attribute(self):
        record = WISCONSIN_SCHEMA.make_record(42)
        assert WISCONSIN_SCHEMA.key(record) == 42

    def test_make_record_has_schema_arity(self):
        record = WISCONSIN_SCHEMA.make_record(7)
        assert len(record) == 10

    def test_derived_attributes_are_deterministic(self):
        assert WISCONSIN_SCHEMA.make_record(9) == WISCONSIN_SCHEMA.make_record(9)

    def test_derived_attributes_vary_with_key(self):
        assert WISCONSIN_SCHEMA.make_record(9) != WISCONSIN_SCHEMA.make_record(10)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_make_record_key_round_trip(self, key):
        assert WISCONSIN_SCHEMA.key(WISCONSIN_SCHEMA.make_record(key)) == key


class TestSchemaConversions:
    def test_custom_schema(self):
        schema = Schema(num_fields=4, field_bytes=4, key_index=2)
        assert schema.record_bytes == 16
        record = schema.make_record(5)
        assert record[2] == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_fields": 0},
            {"field_bytes": 0},
            {"key_index": 10},
            {"key_index": -1},
        ],
    )
    def test_invalid_schema_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            Schema(**kwargs)
