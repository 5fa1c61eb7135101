"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.exceptions import CollectionStateError
from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import DeviceGeometry, PersistentMemoryDevice
from repro.pmem.latency import LatencyModel
from repro.storage.bufferpool import MemoryBudget
from repro.storage.schema import WISCONSIN_SCHEMA
from repro.workloads.generator import (
    load_collection,
    make_join_inputs,
    make_sort_input,
)


@pytest.fixture
def latency():
    """The paper's default latency model (10 ns reads, 150 ns writes)."""
    return LatencyModel()


@pytest.fixture
def device(latency):
    """A fresh simulated device with default geometry."""
    return PersistentMemoryDevice(latency=latency, geometry=DeviceGeometry())


@pytest.fixture
def backend(device):
    """The minimal-overhead blocked-memory backend."""
    return make_backend("blocked_memory", device)


@pytest.fixture(params=sorted(BACKEND_REGISTRY))
def any_backend(request):
    """Each of the four persistence backends, on its own device."""
    backend_device = PersistentMemoryDevice()
    return make_backend(request.param, backend_device)


@pytest.fixture
def schema():
    return WISCONSIN_SCHEMA


def assert_sealed(collection):
    """``collection`` is sealed: it refuses a non-empty ``extend``."""
    with pytest.raises(CollectionStateError, match="is sealed"):
        collection.extend([collection.schema.make_record(0)])


def build_collection(backend, keys, name="input", schema=WISCONSIN_SCHEMA):
    """Materialize a collection with the given key sequence."""
    return load_collection(
        (schema.make_record(key) for key in keys), backend, name, schema
    )


@pytest.fixture
def small_sort_input(backend):
    """A 400-record Wisconsin sort input on the blocked-memory backend."""
    return make_sort_input(400, backend, name="sort-input")


@pytest.fixture
def small_join_inputs(backend):
    """A 150 x 1500 join input pair (1:10 ratio, fanout 10)."""
    return make_join_inputs(150, 1_500, backend)


@pytest.fixture
def sort_budget(small_sort_input):
    """A DRAM budget of 10 % of the sort input."""
    return MemoryBudget.fraction_of(small_sort_input, 0.10)


@pytest.fixture
def join_budget(small_join_inputs):
    """A DRAM budget of 10 % of the left join input."""
    left, _ = small_join_inputs
    return MemoryBudget.fraction_of(left, 0.10)
