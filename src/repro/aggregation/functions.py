"""Aggregate functions for grouped aggregation.

Each aggregate is a small accumulator object: ``initial()`` produces the
starting state, ``step(state, value)`` folds one attribute value in, and
``final(state)`` yields the output value.  States are plain Python values
so the operators can keep one per group in DRAM and account for their size
against the memory budget.

The operators do not call ``step`` per record.  :func:`compile_fold` turns
an aggregate list into one generated ``fold(states, record)`` function
that updates a group's list of states in place, with each aggregate's
``fold_source`` inlined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.exceptions import ConfigurationError


class AggregateFunction(ABC):
    """Accumulator-style aggregate over one integer attribute."""

    #: Name used in registries and reports.
    name: str = "aggregate"

    #: Source of one in-place update of ``states[{slot}]`` by ``record``,
    #: inlined by :func:`compile_fold`; must equal :meth:`step`.
    fold_source: str = (
        "states[{slot}] = steps[{slot}](states[{slot}], record[{attribute}])"
    )

    @abstractmethod
    def initial(self):
        """The accumulator state before any value has been folded in."""

    @abstractmethod
    def step(self, state, value: int):
        """Fold one value into the state and return the new state."""

    @abstractmethod
    def final(self, state) -> int:
        """Produce the aggregate result from the final state."""

    def merge(self, left, right):
        """Combine two partial states (used when partitions are unioned).

        The default raises; aggregates that support partial aggregation
        override it.
        """
        raise ConfigurationError(f"{self.name} does not support partial merging")


class CountAggregate(AggregateFunction):
    """COUNT(*): the number of records in the group."""

    name = "count"
    fold_source = "states[{slot}] += 1"

    def initial(self):
        return 0

    def step(self, state, value: int):
        return state + 1

    def final(self, state) -> int:
        return state

    def merge(self, left, right):
        return left + right


class SumAggregate(AggregateFunction):
    """SUM(attribute)."""

    name = "sum"
    fold_source = "states[{slot}] += record[{attribute}]"

    def initial(self):
        return 0

    def step(self, state, value: int):
        return state + value

    def final(self, state) -> int:
        return state

    def merge(self, left, right):
        return left + right


class MinAggregate(AggregateFunction):
    """MIN(attribute)."""

    name = "min"
    fold_source = """value = record[{attribute}]
if states[{slot}] is None or value < states[{slot}]:
    states[{slot}] = value"""

    def initial(self):
        return None

    def step(self, state, value: int):
        return value if state is None else min(state, value)

    def final(self, state) -> int:
        if state is None:
            raise ConfigurationError("MIN over an empty group is undefined")
        return state

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return min(left, right)


class MaxAggregate(AggregateFunction):
    """MAX(attribute)."""

    name = "max"
    fold_source = """value = record[{attribute}]
if states[{slot}] is None or value > states[{slot}]:
    states[{slot}] = value"""

    def initial(self):
        return None

    def step(self, state, value: int):
        return value if state is None else max(state, value)

    def final(self, state) -> int:
        if state is None:
            raise ConfigurationError("MAX over an empty group is undefined")
        return state

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return max(left, right)


class AverageAggregate(AggregateFunction):
    """AVG(attribute), reported as an integer (floor), SQL-style for ints."""

    name = "avg"

    def initial(self):
        return (0, 0)  # (sum, count)

    def step(self, state, value: int):
        total, count = state
        return (total + value, count + 1)

    def final(self, state) -> int:
        total, count = state
        if count == 0:
            raise ConfigurationError("AVG over an empty group is undefined")
        return total // count

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])


#: Registry of aggregate constructors by SQL-ish name.
AGGREGATE_REGISTRY = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "avg": AverageAggregate,
}


def make_aggregate(name: str) -> AggregateFunction:
    """Instantiate an aggregate function by name."""
    try:
        return AGGREGATE_REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(AGGREGATE_REGISTRY))
        raise ConfigurationError(
            f"unknown aggregate {name!r}; expected one of: {known}"
        ) from None


def compile_fold(
    aggregates: list[tuple[AggregateFunction, int]],
) -> Callable[[list, tuple], None]:
    """One ``fold(states, record)`` for ``(aggregate, attribute)`` pairs.

    ``states[i]`` is the state of ``aggregates[i]``; the generated function
    folds ``record`` into every state in place, exactly as
    ``states[i] = aggregate.step(states[i], record[attribute])`` would.
    """
    lines = ["def fold(states, record):"]
    for slot, (aggregate, attribute) in enumerate(aggregates):
        source = aggregate.fold_source.format(slot=slot, attribute=attribute)
        lines.extend("    " + line for line in source.splitlines())
    lines.append("    return None")
    namespace = {"steps": [aggregate.step for aggregate, _ in aggregates]}
    exec("\n".join(lines), namespace)
    return namespace["fold"]
