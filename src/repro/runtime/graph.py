"""Control-flow graph of collections and API calls.

The runtime tracks dependencies between collections with a bipartite
graph (Section 3.1, Figure 4): collection nodes connect to the API call
nodes that consume them, and call nodes connect to the collections they
produce.  The graph is what allows a deferred collection to be
reconstructed on demand by walking back to its oldest materialized
ancestor and replaying the calls along the way.

A collection node is the collection object itself: names are only
labels, so two collections under one label are two nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphConsistencyError
from repro.runtime.api import CallKind
from repro.storage.collection import PersistentCollection


@dataclass(eq=False)
class CallNode:
    """One recorded API call (compared by identity, like collections)."""

    descriptor: object  # SplitCall | PartitionCall | FilterCall | MergeCall
    inputs: tuple[PersistentCollection, ...]
    outputs: tuple[PersistentCollection, ...]
    #: Set once the runtime decides the call's outputs as a group (the
    #: eager-partition rule forces a single decision per partition call).
    group_decision: str | None = None

    @property
    def kind(self) -> CallKind:
        return self.descriptor.kind

    def output_index(self, collection: PersistentCollection) -> int:
        try:
            return self.outputs.index(collection)
        except ValueError:
            raise GraphConsistencyError(
                f"collection {collection!r} is not an output of this "
                f"{self.kind.value} call"
            ) from None


class ControlFlowGraph:
    """Bipartite dependency graph between collections and API calls."""

    def __init__(self) -> None:
        self._calls: list[CallNode] = []
        self._producer: dict[PersistentCollection, CallNode] = {}
        self._consumers: dict[PersistentCollection, list[CallNode]] = {}

    def add_call(
        self,
        descriptor,
        inputs: tuple[PersistentCollection, ...],
        outputs: tuple[PersistentCollection, ...],
    ) -> CallNode:
        """Record an API call; every output may have only one producer."""
        for collection in outputs:
            if collection in self._producer:
                raise GraphConsistencyError(
                    f"collection {collection!r} already has a producer call"
                )
        call = CallNode(descriptor, tuple(inputs), tuple(outputs))
        self._calls.append(call)
        for collection in inputs:
            self._consumers.setdefault(collection, []).append(call)
        for collection in outputs:
            self._producer[collection] = call
        return call

    def calls(self) -> list[CallNode]:
        return list(self._calls)

    def producer_of(self, collection: PersistentCollection) -> CallNode | None:
        """The call that produces ``collection``, or ``None`` for primary inputs."""
        return self._producer.get(collection)

    def consumers_of(self, collection: PersistentCollection) -> list[CallNode]:
        """Calls that take ``collection`` as an input."""
        return list(self._consumers.get(collection, ()))

    def consumer_count(self, collection: PersistentCollection) -> int:
        """How many calls process the collection (the multi-process rule)."""
        return len(self._consumers.get(collection, ()))

    def __len__(self) -> int:
        return len(self._calls)
