"""Tests for persistent collections."""

import pytest

from repro.exceptions import CollectionStateError, ConfigurationError
from repro.storage.collection import (
    CollectionStatus,
    PersistentCollection,
    StoreOwner,
)
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import build_collection


class TestLifecycle:
    def test_materialized_requires_backend(self):
        with pytest.raises(ConfigurationError):
            PersistentCollection(status=CollectionStatus.MATERIALIZED, backend=None)

    def test_memory_collection_needs_no_backend(self):
        collection = PersistentCollection(status=CollectionStatus.MEMORY)
        collection.extend([WISCONSIN_SCHEMA.make_record(1)])
        collection.seal()
        assert len(collection) == 1

    def test_clear_releases_the_store_and_appends_again(self, any_backend):
        # Every backend charges an append after a truncate from the store's
        # fresh allocation, and holds on the device exactly what it reports.
        device = any_backend.device
        collection = build_collection(any_backend, range(500), name="reused")
        collection.clear()
        assert collection.store.physical_bytes == device.allocated_bytes
        collection.extend(WISCONSIN_SCHEMA.make_record(k) for k in range(500))
        collection.seal()
        assert len(collection) == 500
        assert collection.store.logical_bytes == 500 * WISCONSIN_SCHEMA.record_bytes
        assert collection.store.physical_bytes == device.allocated_bytes
        assert collection.store.physical_bytes >= collection.store.logical_bytes

    def test_unnamed_collections_share_a_label_not_a_store(self, backend):
        first = PersistentCollection(backend=backend)
        second = PersistentCollection(backend=backend)
        assert first.name == second.name == "collection"
        assert first.store is not second.store

    def test_status_flags(self, backend):
        materialized = PersistentCollection(backend=backend)
        assert materialized.is_materialized
        deferred = PersistentCollection(status=CollectionStatus.DEFERRED)
        assert deferred.is_deferred
        memory = PersistentCollection(status=CollectionStatus.MEMORY)
        assert memory.is_memory

    def test_seal_prevents_appends(self, backend):
        collection = build_collection(backend, range(5), name="sealed")
        with pytest.raises(CollectionStateError):
            collection.extend([WISCONSIN_SCHEMA.make_record(6)])

    def test_clear_resets_and_allows_appends(self, backend):
        collection = build_collection(backend, range(5), name="clearable")
        collection.clear()
        assert len(collection) == 0
        collection.extend([WISCONSIN_SCHEMA.make_record(1)])
        assert len(collection) == 1

    def test_drop_removes_backend_store(self, backend):
        collection = build_collection(backend, range(5), name="droppable")
        store = collection.store
        assert backend.stores() == [store]
        collection.drop()
        assert backend.stores() == []
        assert collection.store is None
        assert collection.status is CollectionStatus.DROPPED
        collection.drop()  # a second drop does nothing
        assert collection.status is CollectionStatus.DROPPED

    @pytest.mark.parametrize(
        "status", [CollectionStatus.MATERIALIZED, CollectionStatus.MEMORY]
    )
    def test_a_dropped_collection_refuses_every_access(self, backend, status):
        collection = PersistentCollection(
            name="gone", backend=backend, status=status, context=object()
        )
        collection.extend([WISCONSIN_SCHEMA.make_record(1)])
        collection.drop()
        assert collection.context is None
        assert collection.records == [WISCONSIN_SCHEMA.make_record(1)]
        for access in (
            lambda: list(collection.scan()),
            lambda: list(collection.scan_blocks()),
            lambda: len(collection),
            lambda: collection.extend([WISCONSIN_SCHEMA.make_record(2)]),
        ):
            with pytest.raises(CollectionStateError, match="'gone'"):
                access()

    def test_mark_materialized_gives_a_dropped_collection_a_fresh_store(
        self, backend
    ):
        collection = build_collection(backend, range(5), name="again")
        first = collection.store
        collection.drop()
        collection.mark_materialized()
        assert collection.is_materialized
        assert collection.store is not first
        assert backend.stores() == [collection.store]
        collection.extend([WISCONSIN_SCHEMA.make_record(1)])
        collection.seal()
        assert list(collection.scan()) == [WISCONSIN_SCHEMA.make_record(1)]

    def test_append_to_deferred_raises(self):
        deferred = PersistentCollection(status=CollectionStatus.DEFERRED)
        with pytest.raises(CollectionStateError):
            deferred.extend([WISCONSIN_SCHEMA.make_record(1)])

    def test_scan_deferred_without_context_raises(self):
        deferred = PersistentCollection(status=CollectionStatus.DEFERRED)
        with pytest.raises(CollectionStateError):
            list(deferred.scan())

    def test_len_of_deferred_without_context_raises(self):
        deferred = PersistentCollection(status=CollectionStatus.DEFERRED)
        with pytest.raises(CollectionStateError):
            len(deferred)

    def test_mark_materialized_promotes_deferred(self, backend):
        deferred = PersistentCollection(
            name="promote-me", backend=backend, status=CollectionStatus.DEFERRED
        )
        deferred.mark_materialized()
        assert deferred.is_materialized
        deferred.extend([WISCONSIN_SCHEMA.make_record(1)])
        assert len(deferred) == 1

    def test_mark_materialized_without_backend_raises(self):
        deferred = PersistentCollection(status=CollectionStatus.DEFERRED)
        with pytest.raises(CollectionStateError):
            deferred.mark_materialized()


class TestScanSemantics:
    def test_scan_preserves_insertion_order(self, backend):
        keys = [5, 3, 9, 1]
        collection = build_collection(backend, keys, name="ordered")
        assert [r[0] for r in collection.scan()] == keys

    def test_scan_slice(self, backend):
        collection = build_collection(backend, range(10), name="sliced")
        assert [r[0] for r in collection.scan(start=3, stop=6)] == [3, 4, 5]

    def test_iter_protocol(self, backend):
        collection = build_collection(backend, range(4), name="iterable")
        assert len(list(collection)) == 4

    def test_keys_helper(self, backend):
        collection = build_collection(backend, [4, 2, 7], name="keyed")
        assert collection.keys() == [4, 2, 7]

    def test_is_sorted(self, backend):
        assert build_collection(backend, [1, 2, 3], name="s1").is_sorted()
        assert not build_collection(backend, [3, 1, 2], name="s2").is_sorted()

    def test_nbytes(self, backend):
        collection = build_collection(backend, range(10), name="sized")
        assert collection.nbytes == 800

    def test_num_buffers(self, backend):
        collection = build_collection(backend, range(8), name="buffered")
        assert collection.num_buffers == pytest.approx(10.0)  # 640 bytes / 64


class TestIOCharging:
    def test_memory_collection_charges_nothing(self, device, backend):
        collection = PersistentCollection(status=CollectionStatus.MEMORY)
        collection.extend(WISCONSIN_SCHEMA.make_record(i) for i in range(100))
        list(collection.scan())
        assert device.elapsed_ns == 0

    def test_append_charges_block_granular_writes(self, device, backend):
        collection = PersistentCollection(name="writes", backend=backend)
        before = device.snapshot()
        collection.extend(WISCONSIN_SCHEMA.make_record(i) for i in range(100))
        collection.flush()
        delta = device.snapshot() - before
        assert delta.cacheline_writes == pytest.approx(8000 / 64)
        assert delta.cacheline_reads == 0

    def test_scan_charges_reads(self, device, backend):
        collection = build_collection(backend, range(100), name="reads")
        before = device.snapshot()
        list(collection.scan())
        delta = device.snapshot() - before
        assert delta.cacheline_reads == pytest.approx(8000 / 64)
        assert delta.cacheline_writes == 0

    def test_scan_slice_charges_only_slice(self, device, backend):
        collection = build_collection(backend, range(100), name="partial")
        before = device.snapshot()
        list(collection.scan(start=50))
        delta = device.snapshot() - before
        assert delta.cacheline_reads == pytest.approx(4000 / 64)

    def test_partial_scan_stops_charging(self, device, backend):
        collection = build_collection(backend, range(2000), name="early-stop")
        before = device.snapshot()
        iterator = collection.scan_blocks()
        first = next(iterator)
        iterator.close()
        delta = device.snapshot() - before
        # An abandoned scan has paid for the lists it handed out and no
        # more: here one charge batch of 64 whole 13-record blocks.
        assert len(first) == 64 * 13
        assert delta.bytes_read == len(first) * WISCONSIN_SCHEMA.record_bytes
        assert delta.cacheline_writes == 0

    def test_flush_writes_partial_block(self, device, backend):
        collection = PersistentCollection(name="tiny", backend=backend)
        collection.extend([WISCONSIN_SCHEMA.make_record(1)])
        assert device.counters.cacheline_writes == 0  # buffered
        collection.flush()
        assert device.counters.cacheline_writes == pytest.approx(80 / 64)

    def test_seal_flushes(self, device, backend):
        collection = PersistentCollection(name="seal-flush", backend=backend)
        collection.extend([WISCONSIN_SCHEMA.make_record(1)])
        collection.seal()
        assert device.counters.cacheline_writes > 0


class TestStoreOwner:
    def test_release_drops_adopted_stores_but_keeps_records(self, backend):
        owner = StoreOwner()
        scratch = owner.adopt(build_collection(backend, range(40), name="scratch"))
        kept = owner.adopt(build_collection(backend, range(10), name="kept"))
        source = build_collection(backend, range(5), name="input")
        snapshot = backend.device.snapshot()
        owner.release(keep=[kept])
        assert backend.stores() == [kept.store, source.store]
        assert backend.device.allocated_bytes == (
            kept.store.physical_bytes + source.store.physical_bytes
        )
        # A drop charges nothing, and the collection keeps its records.
        assert backend.device.snapshot() == snapshot
        assert scratch.status is CollectionStatus.DROPPED
        assert len(scratch.records) == 40
        assert len(kept) == 10

    def test_release_skips_stores_already_gone_and_never_made(self, backend):
        owner = StoreOwner()
        dropped = owner.adopt(build_collection(backend, range(3), name="dropped"))
        dropped.drop()
        owner.adopt(
            PersistentCollection(
                name="deferred", backend=backend, status=CollectionStatus.DEFERRED
            )
        )
        owner.release()
        owner.release()
        assert backend.stores() == []
