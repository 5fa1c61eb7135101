"""The run contract every sort, join and aggregation shares.

:meth:`repro.storage.algorithm.Algorithm._run` reserves the whole budget
in the algorithm's bufferpool while ``_execute`` runs and releases it
afterwards, also when ``_execute`` raises; and it answers a settled empty
input with a sealed empty output without calling ``_execute`` at all.
"""

from __future__ import annotations

import pytest

from repro.aggregation import HashAggregation, SortedAggregation
from repro.joins import JOIN_REGISTRY, JoinAlgorithm
from repro.pmem.metrics import IOSnapshot
from repro.sorts import SORT_REGISTRY, SortAlgorithm
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.workloads.generator import make_join_inputs, make_sort_input

from tests.conftest import build_collection

ALGORITHMS = {
    **SORT_REGISTRY,
    **JOIN_REGISTRY,
    "SortAgg": SortedAggregation,
    "HashAgg": HashAggregation,
}

BUDGET = MemoryBudget.from_records(24)


def build(label, backend, pool=None, materialize_output=True):
    return ALGORITHMS[label](
        backend, BUDGET, materialize_output=materialize_output, bufferpool=pool
    )


def run(algorithm, inputs):
    """The family's public entry point over ``inputs``."""
    if isinstance(algorithm, JoinAlgorithm):
        return algorithm.join(*inputs)
    if isinstance(algorithm, SortAlgorithm):
        return algorithm.sort(*inputs)
    return algorithm.aggregate(*inputs)


def inputs_for(label, backend):
    if label in JOIN_REGISTRY:
        return make_join_inputs(40, 200, backend)
    return (make_sort_input(120, backend, name="run-input"),)


@pytest.mark.parametrize("materialize", [True, False], ids=["materialized", "memory"])
@pytest.mark.parametrize("label", sorted(ALGORITHMS))
def test_workspace_reserved_while_executing_and_released_after(
    label, materialize, backend
):
    pool = Bufferpool(BUDGET)
    algorithm = build(label, backend, pool, materialize_output=materialize)
    original = algorithm._execute
    observed = []

    def spying_execute(output, *inputs):
        observed.append(pool.reserved_bytes)
        return original(output, *inputs)

    algorithm._execute = spying_execute
    result = run(algorithm, inputs_for(label, backend))
    assert observed == [BUDGET.nbytes]
    assert pool.reserved_bytes == 0
    assert result.output.is_sealed
    assert result.output.is_materialized is materialize
    assert isinstance(result.io, IOSnapshot)


@pytest.mark.parametrize("label", sorted(ALGORITHMS))
def test_workspace_released_when_execute_raises(label, backend):
    pool = Bufferpool(BUDGET)
    algorithm = build(label, backend, pool)

    def failing_execute(output, *inputs):
        assert pool.reserved_bytes == BUDGET.nbytes
        raise RuntimeError("execute failed")

    algorithm._execute = failing_execute
    with pytest.raises(RuntimeError, match="execute failed"):
        run(algorithm, inputs_for(label, backend))
    assert pool.reserved_bytes == 0
    assert pool.holders() == {}


def empty_cases():
    for label in sorted(ALGORITHMS):
        sides = ("left", "right") if label in JOIN_REGISTRY else ("input",)
        for side in sides:
            for materialize in (True, False):
                yield pytest.param(
                    label,
                    side,
                    materialize,
                    id=f"{label}-{side}-{'materialized' if materialize else 'memory'}",
                )


@pytest.mark.parametrize("label, side, materialize", list(empty_cases()))
def test_settled_empty_input_returns_a_sealed_empty_output(
    label, side, materialize, backend
):
    algorithm = build(label, backend, materialize_output=materialize)

    def unreachable_execute(output, *inputs):
        raise AssertionError("_execute ran on a settled empty input")

    algorithm._execute = unreachable_execute
    inputs = list(inputs_for(label, backend))
    empty = build_collection(backend, [], name="empty-input")
    inputs[1 if side == "right" else 0] = empty
    result = run(algorithm, inputs)
    output = result.output
    assert output.is_sealed
    assert output.records == []
    assert output.is_materialized is materialize
    assert output.is_memory is not materialize
    assert backend.has_store(output.name) is materialize
    assert output.schema == algorithm.output_schema
    assert algorithm.bufferpool.reserved_bytes == 0
    assert isinstance(result.io, IOSnapshot)
