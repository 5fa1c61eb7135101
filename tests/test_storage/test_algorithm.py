"""The run contract every sort, join and aggregation shares.

:meth:`repro.storage.algorithm.Algorithm._run` reserves the whole budget
in the algorithm's bufferpool while ``_execute`` runs and releases it
afterwards, also when ``_execute`` raises; it answers a settled empty
input with a sealed empty output without calling ``_execute`` at all; and
it owns the run's scratch stores, dropping them when the run ends -- the
output's too when the run fails.
"""

from __future__ import annotations

import pytest

from repro.aggregation import HashAggregation, SortedAggregation
from repro.joins import JoinAlgorithm
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.backends.base import PersistenceBackend
from repro.pmem.device import PersistentMemoryDevice
from repro.pmem.metrics import IOSnapshot
from repro.query import JOIN_ALTERNATIVES, SORT_ALTERNATIVES
from repro.sorts import SelectionSort, SortAlgorithm
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.workloads.generator import make_join_inputs, make_sort_input

from tests.conftest import assert_sealed, build_collection

ALGORITHMS = {
    **SORT_ALTERNATIVES,
    "SelS": SelectionSort,
    **JOIN_ALTERNATIVES,
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
    if label in JOIN_ALTERNATIVES:
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
    assert_sealed(result.output)
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
        sides = ("left", "right") if label in JOIN_ALTERNATIVES else ("input",)
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
    assert_sealed(output)
    assert output.records == []
    assert output.is_materialized is materialize
    assert output.is_memory is not materialize
    assert (output.store in backend.stores()) is materialize
    assert output.schema == algorithm.output_schema
    assert algorithm.bufferpool.reserved_bytes == 0
    assert isinstance(result.io, IOSnapshot)


class KernelFailure(RuntimeError):
    """Raised into a run by :func:`spy_stores`."""


def spy_stores(monkeypatch, inputs, fail_after=None):
    """Record the stores a run creates (its output first).  With
    ``fail_after``, its first write to a store other than its inputs' raises
    once it has created more than ``fail_after`` stores."""
    input_stores = {collection.store for collection in inputs}
    created = []
    create_store = PersistenceBackend.create_store
    append_bulk = PersistenceBackend.append_bulk

    def spy_create(backend, label):
        store = create_store(backend, label)
        created.append(store)
        return store

    def spy_append(backend, store, chunk_bytes, count=1):
        if (
            fail_after is not None
            and len(created) > fail_after
            and store not in input_stores
        ):
            raise KernelFailure(f"write to {store.label!r} failed")
        return append_bulk(backend, store, chunk_bytes, count)

    monkeypatch.setattr(PersistenceBackend, "create_store", spy_create)
    monkeypatch.setattr(PersistenceBackend, "append_bulk", spy_append)
    return created


#: The read-only baselines write no scratch: only their output.
NO_SCRATCH = {"NLJ", "SelS"}


@pytest.mark.parametrize("label", sorted(ALGORITHMS))
def test_run_drops_its_scratch_and_keeps_its_output(label, backend, monkeypatch):
    inputs = inputs_for(label, backend)
    stores = backend.stores()
    allocated = backend.device.allocated_bytes
    created = spy_stores(monkeypatch, inputs)
    result = run(build(label, backend), inputs)
    assert (len(created) > 1) is (label not in NO_SCRATCH)
    assert backend.stores() == [*stores, result.output.store]
    output_bytes = result.output.store.physical_bytes
    assert backend.device.allocated_bytes == allocated + output_bytes
    assert result.output.records


@pytest.mark.parametrize("label", sorted(ALGORITHMS))
def test_failed_run_drops_its_scratch_and_its_output(label, backend, monkeypatch):
    inputs = inputs_for(label, backend)
    stores = backend.stores()
    allocated = backend.device.allocated_bytes
    # Fail once the first scratch store exists, or on the output's first
    # write when the run has no scratch.
    fail_after = 0 if label in NO_SCRATCH else 1
    created = spy_stores(monkeypatch, inputs, fail_after=fail_after)
    with pytest.raises(KernelFailure):
        run(build(label, backend), inputs)
    assert len(created) > fail_after
    assert backend.stores() == stores
    assert backend.device.allocated_bytes == allocated


@pytest.mark.parametrize("backend_name", sorted(BACKEND_REGISTRY))
@pytest.mark.parametrize("label", sorted(ALGORITHMS))
def test_two_runs_over_one_input_write_two_stores(label, backend_name):
    """An output's store is its own, whatever its label: a second
    identical run charges what the first did and writes a store of its
    own, and dropping either output leaves the other readable."""
    backend = make_backend(backend_name, PersistentMemoryDevice())
    inputs = inputs_for(label, backend)
    algorithm = build(label, backend)
    first, second = run(algorithm, inputs), run(algorithm, inputs)
    assert first.io.as_dict() == second.io.as_dict()
    assert first.output.name == second.output.name
    assert first.output.store is not second.output.store
    output_bytes = len(first.output.records) * algorithm.output_schema.record_bytes
    assert first.output.store.logical_bytes == output_bytes
    assert second.output.store.logical_bytes == output_bytes
    assert first.output.store.physical_bytes == second.output.store.physical_bytes
    records = list(first.output.records)
    first.output.drop()
    assert list(second.output.scan()) == records
