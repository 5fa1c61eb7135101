"""Tests for run management and k-way merging."""

import pytest

from repro.exceptions import ConfigurationError
from repro.storage.collection import CollectionStatus, PersistentCollection
from repro.storage.runs import RunSet, merge_runs, merge_streams
from repro.storage.schema import WISCONSIN_SCHEMA

from tests.conftest import assert_sealed


def make_run(runset, keys):
    return runset.write_sorted_run(
        WISCONSIN_SCHEMA.make_record(key) for key in sorted(keys)
    )


class TestRunSet:
    def test_new_runs_are_distinctly_named(self, backend):
        runset = RunSet(backend)
        first, second = runset.new_run(), runset.new_run()
        assert first.name != second.name
        assert len(runset) == 2

    def test_write_sorted_run_seals(self, backend):
        runset = RunSet(backend)
        run = make_run(runset, [3, 1, 2])
        assert_sealed(run)
        assert run.is_sorted()

    def test_iteration(self, backend):
        runset = RunSet(backend)
        make_run(runset, [1])
        make_run(runset, [2])
        assert len(list(runset)) == 2


class TestMergeStreams:
    def test_merges_sorted_streams(self):
        streams = [
            iter([WISCONSIN_SCHEMA.make_record(k) for k in [1, 4, 7]]),
            iter([WISCONSIN_SCHEMA.make_record(k) for k in [2, 5, 8]]),
            iter([WISCONSIN_SCHEMA.make_record(k) for k in [3, 6, 9]]),
        ]
        merged = [r[0] for r in merge_streams(streams, WISCONSIN_SCHEMA.key)]
        assert merged == list(range(1, 10))

    def test_handles_empty_streams(self):
        streams = [iter([]), iter([WISCONSIN_SCHEMA.make_record(5)]), iter([])]
        merged = list(merge_streams(streams, WISCONSIN_SCHEMA.key))
        assert len(merged) == 1

    def test_duplicate_keys_survive(self):
        streams = [
            iter([WISCONSIN_SCHEMA.make_record(k) for k in [1, 1]]),
            iter([WISCONSIN_SCHEMA.make_record(1)]),
        ]
        merged = list(merge_streams(streams, WISCONSIN_SCHEMA.key))
        assert len(merged) == 3


class TestMergeRuns:
    def _output(self, backend, name="merged"):
        return PersistentCollection(name=name, backend=backend)

    def test_single_pass_merge(self, backend):
        runset = RunSet(backend)
        make_run(runset, [1, 4, 7])
        make_run(runset, [2, 5, 8])
        output = self._output(backend)
        passes = merge_runs(runset.runs, output, fan_in=8, backend=backend)
        assert passes == 1
        assert [r[0] for r in output.records] == [1, 2, 4, 5, 7, 8]
        assert_sealed(output)

    def test_multi_pass_merge(self, backend):
        runset = RunSet(backend)
        for start in range(6):
            make_run(runset, [start, start + 10, start + 20])
        output = self._output(backend, "multi")
        passes = merge_runs(runset.runs, output, fan_in=2, backend=backend)
        assert passes > 1
        assert output.is_sorted()
        assert len(output.records) == 18

    def test_no_runs_yields_empty_sealed_output(self, backend):
        output = self._output(backend, "empty")
        passes = merge_runs([], output, fan_in=4, backend=backend)
        assert passes == 0
        assert len(output.records) == 0
        assert_sealed(output)

    def test_single_run_is_copied(self, backend):
        runset = RunSet(backend)
        make_run(runset, [2, 1, 3])
        output = self._output(backend, "copy")
        merge_runs(runset.runs, output, fan_in=4, backend=backend)
        assert [r[0] for r in output.records] == [1, 2, 3]

    def test_invalid_fan_in(self, backend):
        with pytest.raises(ConfigurationError):
            merge_runs([], self._output(backend, "bad"), fan_in=1, backend=backend)

    def test_pipelined_output_charges_no_writes(self, device, backend):
        runset = RunSet(backend)
        make_run(runset, [1, 3])
        make_run(runset, [2, 4])
        output = PersistentCollection(
            name="pipelined", status=CollectionStatus.MEMORY
        )
        before = device.snapshot()
        merge_runs(runset.runs, output, fan_in=8, backend=backend)
        delta = device.snapshot() - before
        assert delta.cacheline_writes == 0
        assert delta.cacheline_reads > 0
        assert_sealed(output)

    def test_intermediate_passes_charge_writes(self, device, backend):
        runset = RunSet(backend)
        for start in range(6):
            make_run(runset, [start, start + 6])
        single_pass_device_reads = None
        output = PersistentCollection(
            name="intermediate", status=CollectionStatus.MEMORY
        )
        before = device.snapshot()
        merge_runs(runset.runs, output, fan_in=2, backend=backend)
        delta = device.snapshot() - before
        # With fan-in 2 and 6 runs there is at least one intermediate level
        # that is written and read back.
        assert delta.cacheline_writes > 0
