"""Tests for the aggregate accumulators."""

import pytest

from repro.aggregation.functions import (
    AGGREGATE_REGISTRY,
    AverageAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    make_aggregate,
)
from repro.exceptions import ConfigurationError


def fold(aggregate, values):
    state = aggregate.initial()
    for value in values:
        state = aggregate.step(state, value)
    return aggregate.final(state)


class TestIndividualAggregates:
    def test_count(self):
        assert fold(CountAggregate(), [5, 5, 7]) == 3

    def test_sum(self):
        assert fold(SumAggregate(), [1, 2, 3, 4]) == 10

    def test_min(self):
        assert fold(MinAggregate(), [7, 3, 9]) == 3

    def test_max(self):
        assert fold(MaxAggregate(), [7, 3, 9]) == 9

    def test_avg_floor_semantics(self):
        assert fold(AverageAggregate(), [1, 2, 4]) == 2

    @pytest.mark.parametrize("cls", [MinAggregate, MaxAggregate, AverageAggregate])
    def test_empty_group_is_undefined(self, cls):
        aggregate = cls()
        with pytest.raises(ConfigurationError):
            aggregate.final(aggregate.initial())

    def test_registry_and_factory(self):
        assert set(AGGREGATE_REGISTRY) == {"count", "sum", "min", "max", "avg"}
        assert isinstance(make_aggregate("sum"), SumAggregate)
        with pytest.raises(ConfigurationError):
            make_aggregate("median")
