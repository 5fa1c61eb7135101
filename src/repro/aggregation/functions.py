"""Aggregate functions for grouped aggregation.

Each aggregate is a small accumulator object: ``initial()`` produces the
starting state, ``step(state, value)`` folds one attribute value in, and
``final(state)`` yields the output value.  States are plain Python values
so the operators can keep one per group in DRAM and account for their size
against the memory budget.

The operators do not call these methods per record.  Each aggregate also
declares its semantics as Python source snippets, which
:mod:`repro.aggregation.kernels` inlines into generated kernels compiled
once per aggregate spec: ``init_source`` (the state after a group's first
value), ``fold_source`` (fold one more value in place), ``final_source``
(the output of a state) and ``group_source`` (the output of a whole group
at once).  The snippets must agree with ``initial``/``step``/``final``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.exceptions import ConfigurationError


class AggregateFunction(ABC):
    """Accumulator-style aggregate over one integer attribute."""

    #: Name used in registries and reports.
    name: str = "aggregate"

    # Source snippets inlined by :mod:`repro.aggregation.kernels`, each
    # formatted with ``{value}`` (an expression for the folded value),
    # ``{values}`` (an iterable of a whole group's values, whose records
    # are the list ``rows``) and ``{state[i]}`` (the aggregate's ``i``-th
    # state slot).  Every concrete aggregate declares all four.

    #: State slots the aggregate keeps per group.
    state_slots: int = 1
    #: Expression: the ``state_slots`` state values after folding a group's
    #: first value, comma-separated; must equal ``step(initial(), value)``.
    init_source: str
    #: Statements folding ``{value}`` into the state in place; must equal
    #: :meth:`step`.
    fold_source: str
    #: Expression: the output value of the state; must equal :meth:`final`.
    final_source: str
    #: Expression: the output value of a whole non-empty group, equal to
    #: folding its values one at a time.
    group_source: str

    @abstractmethod
    def initial(self):
        """The accumulator state before any value has been folded in."""

    @abstractmethod
    def step(self, state, value: int):
        """Fold one value into the state and return the new state."""

    @abstractmethod
    def final(self, state) -> int:
        """Produce the aggregate result from the final state."""


class CountAggregate(AggregateFunction):
    """COUNT(*): the number of records in the group."""

    name = "count"
    init_source = "1"
    fold_source = "{state[0]} += 1"
    final_source = "{state[0]}"
    group_source = "len(rows)"

    def initial(self):
        return 0

    def step(self, state, value: int):
        return state + 1

    def final(self, state) -> int:
        return state


class SumAggregate(AggregateFunction):
    """SUM(attribute)."""

    name = "sum"
    init_source = "{value}"
    fold_source = "{state[0]} += {value}"
    final_source = "{state[0]}"
    group_source = "sum({values})"

    def initial(self):
        return 0

    def step(self, state, value: int):
        return state + value

    def final(self, state) -> int:
        return state


class MinAggregate(AggregateFunction):
    """MIN(attribute)."""

    name = "min"
    init_source = "{value}"
    fold_source = """if {value} < {state[0]}:
    {state[0]} = {value}"""
    final_source = "{state[0]}"
    group_source = "min({values})"

    def initial(self):
        return None

    def step(self, state, value: int):
        return value if state is None else min(state, value)

    def final(self, state) -> int:
        if state is None:
            raise ConfigurationError("MIN over an empty group is undefined")
        return state


class MaxAggregate(AggregateFunction):
    """MAX(attribute)."""

    name = "max"
    init_source = "{value}"
    fold_source = """if {value} > {state[0]}:
    {state[0]} = {value}"""
    final_source = "{state[0]}"
    group_source = "max({values})"

    def initial(self):
        return None

    def step(self, state, value: int):
        return value if state is None else max(state, value)

    def final(self, state) -> int:
        if state is None:
            raise ConfigurationError("MAX over an empty group is undefined")
        return state


class AverageAggregate(AggregateFunction):
    """AVG(attribute), reported as an integer (floor), SQL-style for ints."""

    name = "avg"
    state_slots = 2  # (sum, count)
    init_source = "{value}, 1"
    fold_source = """{state[0]} += {value}
{state[1]} += 1"""
    final_source = "{state[0]} // {state[1]}"
    group_source = "sum({values}) // len(rows)"

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

