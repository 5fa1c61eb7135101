"""Fixtures for the workload tests."""

import threading

import pytest

from repro import Query


@pytest.fixture
def gate():
    """An event a query's filter predicate waits on, so a test holds an
    admitted query running until it sets the event.  Set again at
    teardown, so a failing test never leaves a worker blocked."""
    event = threading.Event()
    yield event
    event.set()


def gated(gate, collection):
    """A query over ``collection`` that runs until ``gate`` is set: a
    full-selectivity filter whose predicate waits on the gate."""
    return Query.scan(collection).filter(
        lambda record: gate.wait(10), selectivity=1.0
    )
