"""Storage layer: records, persistent collections, bufferpool and runs."""

from repro.storage.schema import Schema, WISCONSIN_SCHEMA
from repro.storage.collection import (
    CollectionStatus,
    PersistentCollection,
    StoreOwner,
)
from repro.storage.bufferpool import Bufferpool, MemoryBudget
from repro.storage.runs import RunSet, merge_runs

__all__ = [
    "Schema",
    "WISCONSIN_SCHEMA",
    "CollectionStatus",
    "PersistentCollection",
    "StoreOwner",
    "Bufferpool",
    "MemoryBudget",
    "RunSet",
    "merge_runs",
]
