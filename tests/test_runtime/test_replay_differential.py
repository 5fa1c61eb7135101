"""Differential test: the batched replay against the per-record replay.

The reference below is the per-record replay the operator context used to
run: a generator per derivation step, fed by a root scan that charges each
I/O block as the record completing it streams past (the pending-read loop)
and the partial tail block only once the scan runs past the root's last
record.  Hypothesis builds derivation chains of depth 1-3 (filter,
partition, split) over MEMORY and MATERIALIZED roots on every backend,
then compares ``reconstruct`` slices, ``scan`` slices, ``produce`` and
partition-group ``produce`` with the reference: the same records, the
same device counters, the same per-store stats and the same replay
bookkeeping.
"""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pmem.backends import BACKEND_REGISTRY, make_backend
from repro.pmem.device import PersistentMemoryDevice
from repro.runtime.api import CallKind
from repro.runtime.context import OperatorContext
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.schema import WISCONSIN_SCHEMA


# --------------------------------------------------------------------- #
# The reference: the per-record replay.
# --------------------------------------------------------------------- #
class ReferenceReplay:
    """Per-record ``_derive``/``reconstruct``/``produce`` over a context's graph."""

    def __init__(self, context: OperatorContext) -> None:
        self.context = context
        self.accumulated_read_ns: dict[PersistentCollection, float] = {}
        self.reconstruction_counts: dict[PersistentCollection, int] = {}
        self.last_reconstructed: dict[PersistentCollection, int] = {}

    @staticmethod
    def scan(collection):
        """The pending-read loop: charge a block when its last record streams."""
        records = collection.records[:]
        if not collection.is_materialized:
            yield from records
            return
        pending_read = 0
        record_bytes = collection.schema.record_bytes
        for record in records:
            pending_read += record_bytes
            if pending_read >= collection.block_bytes:
                collection.backend.read_bulk(collection.store, pending_read)
                pending_read = 0
            yield record
        if pending_read:
            collection.backend.read_bulk(collection.store, pending_read)

    def source_stream(self, collection):
        context = self.context
        if context.is_available(collection):
            device = context.backend.device
            cachelines = device.geometry.bytes_to_cachelines(collection.nbytes)
            self.accumulated_read_ns[collection] = self.accumulated_read_ns.get(
                collection, 0.0
            ) + device.latency.read_cost_ns(cachelines)
            return self.scan(collection)
        return self.derive(collection)

    def derive(self, collection):
        producer = self.context.graph.producer_of(collection)
        descriptor = producer.descriptor
        source = self.source_stream(producer.inputs[0])
        if producer.kind is CallKind.SPLIT:
            start, stop = descriptor.output_slice(producer.output_index(collection))
            yield from itertools.islice(source, start, stop)
        elif producer.kind is CallKind.PARTITION:
            index = producer.output_index(collection)
            for record in source:
                if descriptor.partition_fn(record) == index:
                    yield record
        else:
            for record in source:
                if descriptor.predicate(record):
                    yield record

    def reconstruct(self, collection, start=0, stop=None):
        produced = 0

        def counted():
            nonlocal produced
            for record in self.derive(collection):
                produced += 1
                yield record

        yield from itertools.islice(counted(), start, stop)
        counts = self.reconstruction_counts
        counts[collection] = counts.get(collection, 0) + 1
        if stop is None or produced < stop:
            self.last_reconstructed[collection] = produced

    def produce(self, collection):
        for record in self.derive(collection):
            collection.extend([record])
        collection.flush()

    def produce_partition_group(self, call):
        targets = dict(enumerate(call.outputs))
        for target in targets.values():
            target.mark_materialized()
        for record in self.source_stream(call.inputs[0]):
            target = targets.get(call.descriptor.partition_fn(record))
            if target is not None:
                target.extend([record])
        for target in targets.values():
            target.flush()


# --------------------------------------------------------------------- #
# Generated cases.
# --------------------------------------------------------------------- #
steps = st.one_of(
    st.tuples(
        st.just("filter"),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=4),
    ),
    st.tuples(
        st.just("partition"),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(
        st.just("split"),
        st.integers(min_value=0, max_value=2200),
        st.integers(min_value=0, max_value=1),
    ),
)


def build(backend_name, root_kind, num_records, chain):
    """A fresh device, context and deferred chain over a root; returns the
    root and the chain's output."""
    device = PersistentMemoryDevice()
    backend = make_backend(backend_name, device)
    if root_kind == "memory":
        root = PersistentCollection(name="root", status=CollectionStatus.MEMORY)
    else:
        root = PersistentCollection(
            name="root", backend=backend, status=CollectionStatus.MATERIALIZED
        )
    records = []
    for position in range(num_records):
        fields = list(WISCONSIN_SCHEMA.make_record((position * 7919) % 997))
        fields[1] = position
        records.append(tuple(fields))
    root.extend(records)
    root.seal()
    context = OperatorContext(backend)
    context.register(root)
    current = root
    for kind, a, b in chain:
        if kind == "filter":
            current = context.filter(
                current, lambda record, m=a, r=b % a: record[1] % m == r
            )
        elif kind == "partition":
            outputs = context.partition(
                current, lambda record, k=a: record[0] % k, num_partitions=a
            )
            current = outputs[b % a]
        else:
            current = context.split(current, a)[b]
    return device, backend, context, root, current


def observed(device, backend, before):
    stats = [
        (
            stats.label,
            stats.logical_bytes,
            stats.physical_bytes,
            stats.append_calls,
            stats.read_calls,
            stats.truncate_calls,
            stats.extra,
        )
        for stats in backend.stores()
    ]
    return device.snapshot() - before, stats


case = dict(
    backend_name=st.sampled_from(sorted(BACKEND_REGISTRY)),
    root_kind=st.sampled_from(["memory", "materialized"]),
    num_records=st.integers(min_value=0, max_value=2000),
    chain=st.lists(steps, min_size=1, max_size=3),
)


#: A slice whose last output is the root's last record does not pay the
#: root's tail block; one more record does.
@example("blocked_memory", "materialized", 20, [("filter", 1, 0)], 0, 20, False, 1)
@example("blocked_memory", "materialized", 20, [("filter", 1, 0)], 0, 21, False, 1)
@example("pmfs", "materialized", 2000, [("split", 1000, 0)], 0, None, True, 2)
@settings(max_examples=150, deadline=None)
@given(
    **case,
    start=st.integers(min_value=0, max_value=2100),
    stop=st.one_of(st.none(), st.integers(min_value=0, max_value=2100)),
    via_scan=st.booleans(),
    repeats=st.integers(min_value=1, max_value=2),
)
def test_reconstruct_matches_per_record_replay(
    backend_name, root_kind, num_records, chain, start, stop, via_scan, repeats
):
    device, backend, context, root, target = build(
        backend_name, root_kind, num_records, chain
    )
    ref_device, ref_backend, ref_context, ref_root, ref_target = build(
        backend_name, root_kind, num_records, chain
    )
    reference = ReferenceReplay(ref_context)
    for _ in range(repeats):
        before, ref_before = device.snapshot(), ref_device.snapshot()
        if via_scan:
            records = list(target.scan(start, stop))
        else:
            records = list(context.reconstruct(target, start, stop))
        expected = list(reference.reconstruct(ref_target, start, stop))
        assert records == expected
        assert observed(device, backend, before) == observed(
            ref_device, ref_backend, ref_before
        )
        assert context.reconstruction_count(target) == (
            reference.reconstruction_counts.get(ref_target, 0)
        )
        assert context.last_reconstructed_records(target) == (
            reference.last_reconstructed.get(ref_target)
        )
        assert context.accumulated_read_cost([root]) == (
            reference.accumulated_read_ns.get(ref_root, 0.0)
        )


@settings(max_examples=100, deadline=None)
@given(**case, group=st.booleans())
def test_produce_matches_per_record_replay(
    backend_name, root_kind, num_records, chain, group
):
    if group and chain[-1][0] != "partition":
        chain = [*chain, ("partition", 3, 1)]
    device, backend, context, root, target = build(
        backend_name, root_kind, num_records, chain
    )
    ref_device, ref_backend, ref_context, ref_root, ref_target = build(
        backend_name, root_kind, num_records, chain
    )
    reference = ReferenceReplay(ref_context)
    call = context.graph.producer_of(target)
    ref_call = ref_context.graph.producer_of(ref_target)
    if group:
        call.group_decision = "materialize"
        outputs, ref_outputs = list(call.outputs), list(ref_call.outputs)
    else:
        outputs, ref_outputs = [target], [ref_target]
    target.mark_materialized()
    ref_target.mark_materialized()
    before, ref_before = device.snapshot(), ref_device.snapshot()
    context.produce(target)
    if group:
        reference.produce_partition_group(ref_call)
    else:
        reference.produce(ref_target)
    assert [output.records for output in outputs] == [
        output.records for output in ref_outputs
    ]
    assert all(context.is_available(output) for output in outputs)
    assert observed(device, backend, before) == observed(
        ref_device, ref_backend, ref_before
    )
    assert context.accumulated_read_cost([root]) == (
        reference.accumulated_read_ns.get(ref_root, 0.0)
    )
