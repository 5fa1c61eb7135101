"""Self-tests of the benchmark: workloads, oracle, tracer and runner.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.layers import check_predictions, layer_of
from perfbench.tracing import Tracer, covered_ns
from perfbench.workloads import WORKLOADS, Expected, SmallQueries

ROOT = Path(__file__).resolve().parents[2]


def tiny_args(workload: str, trace: int = 0):
    return run.parse_args(
        [
            "--workload", workload, "--seed", "3", "--seconds", "0.05",
            "--trace", str(trace), "--scale", "0.05",
        ],
        WORKLOADS,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_completes_without_errors(workload):
    record = run.run(tiny_args(workload))
    assert record["correct"]
    assert record["attempted"] >= 1
    figures = record["end_to_end"]
    assert figures["error_rate"] == 0
    assert figures["success_rate"] == 1
    assert figures["qps"] > 0 and figures["sim_device_ms"] > 0
    assert figures["space_amp"] >= 1
    assert record["io_repeats"]
    for shape in record["shapes"].values():
        assert shape["operators"]


def test_inputs_repeat_for_a_seed_and_change_with_it():
    workload = WORKLOADS["lowmem_join"]
    first = workload(5, scale=0.05).generate()
    assert first == workload(5, scale=0.05).generate()
    assert first["V"] != workload(6, scale=0.05).generate()["V"]
    uniform = workload(5, scale=0.05, zipf=0.0).generate()
    # Skew concentrates the probe side on few keys.
    assert len({r[0] for r in first["V"]}) < len({r[0] for r in uniform["V"]})


@dataclass
class CorruptedResult:
    records: list
    io: object
    plan: object


def test_oracle_catches_a_corrupted_output():
    workload = SmallQueries(3, scale=0.05)
    data = workload.generate()
    workload.expected = workload.oracle(data)
    workload.load(data)
    try:
        query = workload.session.query

        def corrupting(q):
            result = query(q)
            records = list(result.records)
            records[0] = records[0][:-1] + (records[0][-1] + 1,)
            return CorruptedResult(records, result.io, result.plan)

        workload.session.query = corrupting
        outcomes, busy, samples = workload.run_unit(random.Random(0))
    finally:
        del workload.session.query
        workload.close()
    assert outcomes and not any(outcome.ok for outcome in outcomes)
    figures = run.end_to_end(outcomes, busy, samples)
    assert figures["error_rate"] == 1.0


def test_ordered_answers_catch_a_swap():
    expected = Expected([(1,), (2,), (3,)], ordered=True)
    assert expected.matches([(1,), (2,), (3,)])
    assert not expected.matches([(2,), (1,), (3,)])
    assert Expected([(1,), (2,)], ordered=False).matches([(2,), (1,)])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_a_nested_span_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "_now", clock)
    tracer = Tracer()

    def span(name, start, end, body=None, new_query=False):
        clock.now = start
        opened = tracer.enter(name, new_query=new_query)
        if body is not None:
            body(opened)
        clock.now = end
        tracer.exit(opened)

    def on_worker(root):
        # A span on another thread, restored under ``root``: 70..90.
        def work():
            state = tracer._state()
            state.ctx = root
            span("worker", 70, 90)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def root_body(root):
        span("a", 10, 40, lambda _: span("b", 20, 30))
        span("c", 50, 60)
        on_worker(root)

    span("root", 0, 100, root_body, new_query=True)
    stats = tracer.merged()
    assert stats["root"].self_ns == 100 - 30 - 10 - 20
    assert stats["root"].total_ns == 100
    assert stats["a"].self_ns == 20
    assert stats["b"].self_ns == 10
    assert stats["c"].self_ns == 10
    assert stats["worker"].self_ns == 20
    assert tracer.worker_span_counts() == (1, 1)


def test_covered_ns_merges_overlapping_intervals():
    assert covered_ns([(0, 10), (5, 15), (20, 30)], 0, 25) == 20
    assert covered_ns([], 0, 10) == 0


def test_wrappers_are_removed_after_the_traced_run():
    tracer = Tracer().install()
    patched = [(owner, attr, original) for owner, attr, original in tracer._patches]
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is not original
    tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    record = run.run(tiny_args("concurrent_shards", trace=1))
    assert record["wrappers_removed"] and record["correct"]
    layers = record["layers"]
    assert layers["worker_spans"] > 0
    assert layers["worker_spans_attached"] == layers["worker_spans"]
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_traced_run_reports_every_declared_layer_metric():
    record = run.run(tiny_args("small_queries", trace=1))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    line = run.summary_line(record, benchmark, trace=True)
    assert set(line["metrics"]) == {m["name"] for m in benchmark["per_layer"]}
    line = run.summary_line(record, benchmark, trace=False)
    assert set(line["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}


def test_prediction_check_reports_mismatches():
    records = {
        "small_queries": {"layers": {"shares": {"sorts": 0.5}}},
        "lowmem_sort": {"layers": {"shares": {"sorts": 0.1}}},
    }
    rows = {row["layer"]: row for row in check_predictions(records)}
    assert rows["sorts"]["highest"] == "small_queries"
    assert not rows["sorts"]["match"]
    assert layer_of("sorts.SegS.sort") == "sorts"
    assert layer_of("query.physical.Filter.blocks") == "query.physical"
    assert layer_of("pmem.device.read") == "pmem.device.read"


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    class Steady:
        between_rounds = True

        def run_unit(self, rng):
            time.sleep(0.001)
            return [], 0.2, [0.2]

    # The host runs the reference task in twice ``REFERENCE_MS``.
    slow = 2 * run.REFERENCE_MS / 1e3
    monkeypatch.setattr(
        run.SpeedGauge, "sample", lambda self, count=1: self.times.append(slow)
    )
    gauge = run.SpeedGauge()
    _, busy, samples, wall_busy, wall_samples = run.measure(
        Steady(), 0.01, random.Random(0), gauge
    )
    assert wall_samples and wall_samples == [0.2] * len(wall_samples)
    assert samples == pytest.approx([0.1] * len(wall_samples))
    assert busy == pytest.approx(wall_busy / 2)
    # A timing before the first unit and one after each 0.2 s unit.
    assert len(gauge.times) == len(wall_samples) + 1


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == (10.0, 50.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "small_queries",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
