"""Cost-model calibration: estimated vs. actual, aggregated over queries.

Every executed plan node carries the planner's Section 2 estimate
(``est_cost_ns``) and the measured device I/O of the node
(:class:`~repro.pmem.metrics.IOSnapshot`).  The aggregator folds both
into per-operator sums of *weighted cachelines* (``reads + lambda *
writes``, the unit the paper's models are expressed in) across every
query a session has run, so ``Session.calibration_report()`` can show
where the models run hot or cold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.shard.planner import FragmentStep


@dataclass
class _OperatorStats:
    nodes: int = 0
    est_wcl: float = 0.0
    actual_wcl: float = 0.0

    @property
    def ratio(self) -> float | None:
        if self.est_wcl <= 0.0:
            return None
        return self.actual_wcl / self.est_wcl


@dataclass
class CalibrationAggregator:
    """Thread-safe per-operator estimated/actual accumulator."""

    _stats: dict = field(default_factory=dict)
    _queries: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, result) -> None:
        """Fold one finished :class:`~repro.shard.executor.QueryResult` in."""
        samples = list(_iter_samples(result))
        with self._lock:
            self._queries += 1
            for operator, est_wcl, actual_wcl in samples:
                stats = self._stats.setdefault(operator, _OperatorStats())
                stats.nodes += 1
                stats.est_wcl += est_wcl
                stats.actual_wcl += actual_wcl

    def report(self) -> str:
        """A small text table of per-operator estimated vs. actual wcl."""
        with self._lock:
            stats = dict(self._stats)
            queries = self._queries
        header = (
            f"cost-model calibration: {queries} quer"
            f"{'y' if queries == 1 else 'ies'}, "
            f"{sum(s.nodes for s in stats.values())} operator nodes"
        )
        if not stats:
            return header + "\n(no executed operator nodes yet)"
        lines = [
            header,
            f"{'operator':<14} {'nodes':>5} {'est wcl':>12} "
            f"{'actual wcl':>12} {'actual/est':>10}",
        ]
        for operator in sorted(stats):
            entry = stats[operator]
            ratio = entry.ratio
            rendered = f"{ratio:.3f}" if ratio is not None else "-"
            lines.append(
                f"{operator:<14} {entry.nodes:>5} {entry.est_wcl:>12.0f} "
                f"{entry.actual_wcl:>12.0f} {rendered:>10}"
            )
        return "\n".join(lines)


def _iter_samples(result):
    """Yield ``(operator, est_wcl, actual_wcl)`` per executed plan node."""
    for step in result.plan.steps:
        if not isinstance(step, FragmentStep):
            continue
        for fragment, fragment_result in zip(
            step.fragments, result.fragment_results.get(step.index, ())
        ):
            yield from _plan_samples(fragment, fragment_result.executions)


def _plan_samples(plan, executions):
    device = plan.backend.device
    read_ns = device.latency.read_ns
    lam = device.write_read_ratio
    for node in plan.root.walk():
        if node.operator == "Scan":
            continue
        execution = executions.get(id(node))
        if execution is None:
            continue
        yield (
            node.operator,
            node.est_cost_ns / read_ns,
            execution.io.weighted_cachelines(lam),
        )
