"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small_queries --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, every wall time
among them at the reference speed (see :class:`SpeedGauge`); with
``--trace 1`` the run measures untraced, then traced, and prints the
per-layer ones.  A fuller record (environment, per-shape latencies and
plans, the simulated-I/O checksum and the whole per-layer table) is
written to ``perfbench/results/`` unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: ``IOSnapshot`` counters summed into the simulated-I/O checksum.
IO_FIELDS = (
    "cacheline_reads", "cacheline_writes", "bytes_read", "bytes_written",
    "read_calls", "write_calls", "transfer_ns", "overhead_ns",
)

#: Held out while tuning: later claims must also hold on this seed.
HELD_OUT_SEED = 9973

#: Wall times are reported as if the host ran :func:`reference_task` in
#: this many milliseconds.
REFERENCE_MS = 10.0

#: Seconds of measured work between two timings of the reference task.
GAUGE_EVERY_S = 0.1

#: A measured unit is scaled by the median of this many timings before it
#: and as many after it.
GAUGE_WINDOW = 3

#: Reference timings between the stretches of a set-up, each far longer
#: than a stretch of measured work; their median is one timing.
SETUP_TIMINGS = 5


def reference_task() -> None:
    """A fixed pure-Python job that does not touch ``repro``.

    It builds, sorts and folds 10k tuples, allocating and hashing much as
    the query engine does.  The garbage collector is off while it runs, so
    its time does not depend on how much the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(5)
        rows = [(rng.random(), i, str(i)) for i in range(10_000)]
        rows.sort()
        totals: dict[str, int] = {}
        for _, i, key in rows:
            totals[key] = totals.get(key, 0) + i
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """The host's speed over a stretch of work, from the reference task.

    A shared host changes speed by tens of percent, within seconds and
    over minutes, and a run's wall times follow it.  The gauge times the
    reference task between stretches of work; a time of that work
    multiplied by :meth:`scale` of the timings around it is the time it
    takes on a host that runs the reference task in ``REFERENCE_MS``.
    That time holds still while the host drifts: a change of the system
    under test moves it, a change of the host's speed does not.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Time the reference task, as the median of ``count`` timings."""
        timings = []
        for _ in range(count):
            started = time.perf_counter()
            reference_task()
            timings.append(time.perf_counter() - started)
        self.times.append(statistics.median(timings))

    def scale(self, start: int, stop: int | None) -> float:
        """The scale from the median of ``times[start:stop]``."""
        return REFERENCE_MS / 1e3 / statistics.median(self.times[start:stop])

    @contextlib.contextmanager
    def timed(self, stretches: list[tuple[float, float]]):
        """Time the ``with`` body, then the reference task.

        Appends the body's wall seconds and its seconds at the reference
        speed, from the timings just before and just after it (the median
        of two timings is their mean).
        """
        started = time.perf_counter()
        yield
        elapsed = time.perf_counter() - started
        self.sample(SETUP_TIMINGS)
        stretches.append((elapsed, elapsed * self.scale(-2, None)))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns ``(value, percentile)``; with ten samples or fewer there is no
    such percentile and the maximum is reported as the 100th.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def io_counters(snapshot) -> dict[str, float]:
    return {name: getattr(snapshot, name) for name in IO_FIELDS}


def measure(workload, seconds: float, rng: random.Random, gauge: SpeedGauge):
    """Run units until ``seconds`` of wall time have passed and a round
    is complete.

    Times the reference task before the first unit, whenever at least
    ``GAUGE_EVERY_S`` of work has passed since the last timing, and at the
    end.  Returns the outcomes, then the busy time and latency samples at
    the reference speed, then both as measured.
    """
    outcomes, units, since_timing = [], [], 0.0
    first = len(gauge.times)
    gauge.sample()
    deadline = time.perf_counter() + seconds
    while not (time.perf_counter() >= deadline and workload.between_rounds):
        unit, unit_busy, unit_samples = workload.run_unit(rng)
        outcomes.extend(unit)
        # The unit lies between timings ``after - 1`` and ``after``.
        units.append((unit_busy, unit_samples, len(gauge.times)))
        since_timing += unit_busy
        if since_timing >= GAUGE_EVERY_S:
            gauge.sample()
            since_timing = 0.0
    if since_timing:
        gauge.sample()
    busy, samples, wall_busy, wall_samples = 0.0, [], 0.0, []
    for unit_busy, unit_samples, after in units:
        scale = gauge.scale(max(first, after - GAUGE_WINDOW), after + GAUGE_WINDOW)
        busy += unit_busy * scale
        samples.extend(sample * scale for sample in unit_samples)
        wall_busy += unit_busy
        wall_samples.extend(unit_samples)
    return outcomes, busy, samples, wall_busy, wall_samples


def end_to_end(outcomes, busy_s: float, samples: list[float]) -> dict:
    """The end-to-end figures of one measured phase."""
    done = [o for o in outcomes if o.ok]
    latencies = [sample * 1e3 for sample in samples]
    tail_ms, tail_pct = tail(latencies)
    count = max(1, len(done))
    device_ns = sum(o.io.total_ns for o in done)
    cachelines = sum(o.io.total_cachelines for o in done)
    writes = sum(o.io.cacheline_writes for o in done)
    return {
        "qps": len(done) / busy_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "error_rate": (len(outcomes) - len(done)) / len(outcomes),
        "success_rate": len(done) / len(outcomes),
        "sim_device_ms": device_ns / count / 1e6,
        "sim_makespan_ms": sum(o.makespan_ns for o in done) / count / 1e6,
        "sim_cachelines": cachelines / count,
        "sim_cacheline_writes": writes / count,
    }


def per_shape(outcomes) -> dict:
    """Latency, plan and simulated I/O of every query shape.

    A shape's I/O must repeat exactly from one execution to the next;
    ``io_repeats`` says whether it did.
    """
    shapes: dict[str, dict] = {}
    for outcome in outcomes:
        entry = shapes.setdefault(
            outcome.shape,
            {"latencies": [], "failed": 0, "operators": None, "io": None,
             "io_repeats": True, "errors": []},
        )
        entry["latencies"].append(outcome.latency_s * 1e3)
        if not outcome.ok:
            entry["failed"] += 1
            if len(entry["errors"]) < 3:
                entry["errors"].append(outcome.error)
            continue
        counters = io_counters(outcome.io)
        if entry["io"] is None:
            entry["io"] = counters
            entry["operators"] = list(outcome.operators)
        elif counters != entry["io"]:
            entry["io_repeats"] = False
    return {
        shape: {
            "count": len(entry["latencies"]),
            "failed": entry["failed"],
            "latency_p50_ms": statistics.median(entry["latencies"]),
            "operators": entry["operators"],
            "io": entry["io"],
            "io_repeats": entry["io_repeats"],
            "errors": entry["errors"],
        }
        for shape, entry in sorted(shapes.items())
    }


def io_checksum(shapes: dict) -> dict[str, float]:
    """Every shape's per-execution I/O counters, summed over shapes."""
    total = dict.fromkeys(IO_FIELDS, 0)
    for entry in shapes.values():
        for name, value in (entry["io"] or {}).items():
            total[name] += value
    return total


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "zipf": args.zipf,
        "scale": args.scale,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": commit_id(),
    }


def set_up(workload_class, args, gauge: SpeedGauge):
    """Set up ``SETUPS`` times and keep the last set-up.

    A set-up is three timed stretches: generation, load and warm-up.
    Returns the workload, the set-up times at the reference speed and as
    measured, and the last warm-up's outcomes.  The oracle runs once,
    between the timed stretches.
    """
    times, wall_times, workload, warmup, expected = [], [], None, [], None
    for attempt in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        stretches: list[tuple[float, float]] = []
        gauge.sample(SETUP_TIMINGS)
        with gauge.timed(stretches):
            workload = workload_class(args.seed, scale=args.scale, zipf=args.zipf)
            data = workload.generate()
        if expected is None:
            expected = workload.oracle(data)
        workload.expected = expected
        with gauge.timed(stretches):
            workload.load(data)
            del data
        rng = random.Random(args.seed * 7919 + attempt)
        warmup = []
        with gauge.timed(stretches):
            for _ in range(workload.warmup_rounds):
                warmup.extend(workload.run_round(rng))
        wall_times.append(sum(wall for wall, _ in stretches))
        times.append(sum(scaled for _, scaled in stretches))
    return workload, times, wall_times, warmup


def run(args) -> dict:
    """Set up, measure and (with ``--trace 1``) trace one workload."""
    from perfbench.workloads import WORKLOADS

    gauge = SpeedGauge()
    for _ in range(3):  # the first timings of a fresh process run slow
        gauge.sample(SETUP_TIMINGS)
    workload, setup_times, wall_setup_times, warmup = set_up(
        WORKLOADS[args.workload], args, gauge
    )
    # Both taken after the warm-up: queries leave stores behind, so at the
    # end of the run both would grow with the number of queries it held.
    space_amp = workload.allocated_bytes() / workload.input_bytes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rng = random.Random(args.seed * 104729 + 1)
    try:
        gc.collect()
        outcomes, busy, samples, wall_busy, wall_samples = measure(
            workload, args.seconds, rng, gauge
        )
        tracer = traced = None
        if args.trace:
            from perfbench.tracing import Tracer

            tracer = Tracer()
            gc.collect()
            with tracer:
                traced = measure(workload, args.seconds, rng, gauge)
    finally:
        workload.close()
    figures = end_to_end(outcomes, busy, samples)
    wall = end_to_end(outcomes, wall_busy, wall_samples)
    for name in ("qps", "latency_p50_ms", "latency_tail_ms"):
        figures[f"wall_{name}"] = wall[name]
    figures["setup_s"] = statistics.median(setup_times)
    figures["wall_setup_s"] = statistics.median(wall_setup_times)
    figures["reference_ms"] = statistics.median(gauge.times) * 1e3
    figures["space_amp"] = space_amp
    figures["peak_rss_mb"] = peak_rss_mb
    shapes = per_shape(outcomes)
    record = {
        "workload": args.workload,
        "environment": environment(args),
        "setup_runs_s": setup_times,
        "wall_setup_runs_s": wall_setup_times,
        "warmup_failed": sum(1 for o in warmup if not o.ok),
        "end_to_end": figures,
        "shapes": shapes,
        "io_checksum": io_checksum(shapes),
        "io_repeats": all(entry["io_repeats"] for entry in shapes.values()),
    }
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok) + record["warmup_failed"]
    if tracer is not None:
        from perfbench.layers import layer_report

        traced_outcomes = traced[0]
        record["traced_end_to_end"] = end_to_end(*traced[:3])
        record["layers"] = layer_report(
            tracer, traced_outcomes, untraced_qps=figures["qps"],
            traced_qps=record["traced_end_to_end"]["qps"],
        )
        record["wrappers_removed"] = not tracer.installed
        attempted += len(traced_outcomes)
        failed += sum(1 for o in traced_outcomes if not o.ok)
    record["attempted"], record["failed"] = attempted, failed
    record["correct"] = failed == 0 and record.get("wrappers_removed", True)
    return record


def summary_line(record: dict, benchmark: dict, trace: bool) -> dict:
    """The final JSON line: the metrics ``BENCHMARK.json`` declares."""
    if trace:
        declared = benchmark["per_layer"]
        values = record["layers"]["metrics"]
    else:
        declared = benchmark["end_to_end"]
        values = record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def parse_args(argv=None, workloads=()):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--zipf", type=float, default=1.0,
        help="Zipf exponent of lowmem_join's probe-side keys (0 = uniform)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the self-tests run at 0.05)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="result file (default: perfbench/results/<workload>-s<seed>-t<trace>.json)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run(args)
    out = args.out or (
        ROOT / "perfbench" / "results"
        / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    figures = record["end_to_end"]
    print(
        f"{args.workload}: {figures['qps']:.1f} qps, p50 "
        f"{figures['latency_p50_ms']:.3f} ms, p{figures['latency_tail_percentile']:.1f} "
        f"{figures['latency_tail_ms']:.3f} ms over {figures['latency_samples']} "
        f"samples; setup {figures['setup_s']:.3f} s; at the reference speed "
        f"(reference task {figures['reference_ms']:.1f} ms here, "
        f"{REFERENCE_MS:.0f} ms there); record in {out}"
    )
    print(json.dumps(summary_line(record, benchmark, bool(args.trace))))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") is None:
        # Pin the hash seed so string-keyed dict and set order repeats from
        # run to run; replaces this process, it starts no other.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
