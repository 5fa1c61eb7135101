"""Analytical cost models for the join algorithms (Section 2.2).

Conventions match :mod:`repro.sorts.cost`: sizes are in cachelines, ``r``
is the per-cacheline read cost, ``lam`` the write/read asymmetry, and
floor/ceiling functions are dropped.  Output materialization is excluded
(the paper factors it out because it is identical across algorithms); an
optional ``output_buffers`` argument adds it back when callers want
absolute totals.  The Grace-family prices (GJ, SegJ, HybJ) write and read
back every partitioned probe record; the joins skip the probe records of
an empty build partition, so where build partitions are empty those
prices are an upper bound.  The joins also skip the partitioning scan of
the probe side when no probe partition is left to write, which is every
SegJ run that materializes no partition (x = 0, as when
``round(k * x_fraction)`` is 0): Eq. 9's first term still charges that
scan, ``r|V|``, so the SegJ price at x = 0 is one probe-side scan too
high whatever the data.
"""

from __future__ import annotations

import math

from repro.exceptions import CostModelError

#: The paper's f: the growth of a partition once a hash table is built
#: over it.
PARTITION_FUDGE_FACTOR = 1.2


def _validate(left: float, right: float, memory: float, lam: float) -> None:
    if left <= 0 or right <= 0:
        raise CostModelError("input sizes must be positive")
    if memory <= 1:
        raise CostModelError("memory must exceed one buffer")
    if lam <= 0:
        raise CostModelError("lambda must be positive")


def _output_cost(output_buffers: float, read_cost: float, lam: float) -> float:
    if output_buffers < 0:
        raise CostModelError("output size must be non-negative")
    return output_buffers * lam * read_cost


def grace_applicable(
    left_buffers: float,
    memory_buffers: float,
    fudge_factor: float = PARTITION_FUDGE_FACTOR,
) -> bool:
    """Grace join applicability: M > sqrt(f |T|)."""
    if left_buffers <= 0 or memory_buffers <= 0:
        raise CostModelError("sizes must be positive")
    return memory_buffers > math.sqrt(fudge_factor * left_buffers)


def nested_loops_cost(
    left_buffers: float,
    right_buffers: float,
    memory_buffers: float,
    read_cost: float = 1.0,
    lam: float = 15.0,
    output_buffers: float = 0.0,
) -> float:
    """Block nested-loops join: r (|T| + |T|/M · |V|), plus output writes."""
    _validate(left_buffers, right_buffers, memory_buffers, lam)
    blocks = max(1.0, left_buffers / memory_buffers)
    return (
        read_cost * (left_buffers + blocks * right_buffers)
        + _output_cost(output_buffers, read_cost, lam)
    )


def grace_join_cost(
    left_buffers: float,
    right_buffers: float,
    read_cost: float = 1.0,
    lam: float = 15.0,
    output_buffers: float = 0.0,
) -> float:
    """Grace join: r (2 + λ)(|T| + |V|), plus output writes."""
    if left_buffers <= 0 or right_buffers <= 0:
        raise CostModelError("input sizes must be positive")
    if lam <= 0:
        raise CostModelError("lambda must be positive")
    return (
        read_cost * (2.0 + lam) * (left_buffers + right_buffers)
        + _output_cost(output_buffers, read_cost, lam)
    )


def hash_join_cost(
    left_buffers: float,
    right_buffers: float,
    memory_buffers: float,
    read_cost: float = 1.0,
    lam: float = 15.0,
    output_buffers: float = 0.0,
) -> float:
    """Simple hash join over k = |T|/M iterations.

    Iteration i reads the surviving (k − i + 1)/k of both inputs and writes
    back the (k − i)/k that does not belong to the current partition
    (Table 1, left columns).  Summing the arithmetic series gives
    reads = (k + 1)/2 · (|T| + |V|) and writes = (k − 1)/2 · (|T| + |V|).
    """
    _validate(left_buffers, right_buffers, memory_buffers, lam)
    k = max(1.0, left_buffers / memory_buffers)
    total = left_buffers + right_buffers
    reads = (k + 1.0) / 2.0 * total
    writes = (k - 1.0) / 2.0 * total
    return (
        read_cost * (reads + lam * writes)
        + _output_cost(output_buffers, read_cost, lam)
    )


def hybrid_join_cost(
    x: float,
    y: float,
    left_buffers: float,
    right_buffers: float,
    memory_buffers: float,
    read_cost: float = 1.0,
    lam: float = 15.0,
    output_buffers: float = 0.0,
) -> float:
    """Hybrid Grace/nested-loops join cost Jh(x, y) (Eq. 6).

    ``Jh(x, y) = r [ (2+λ)(x|T| + y|V|) + (1−x)|T| + |T||V|/M (1 − xy) ]``

    x is the fraction of the left input and y the fraction of the right
    input handled by Grace join; the remainder is processed with block
    nested loops.
    """
    _validate(left_buffers, right_buffers, memory_buffers, lam)
    if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
        raise CostModelError("x and y must lie in [0, 1]")
    t, v, m = left_buffers, right_buffers, memory_buffers
    body = (
        (2.0 + lam) * (x * t + y * v)
        + (1.0 - x) * t
        + (t * v / m) * (1.0 - x * y)
    )
    return read_cost * body + _output_cost(output_buffers, read_cost, lam)


def hybrid_join_saddle_point(
    left_buffers: float,
    right_buffers: float,
    memory_buffers: float,
    lam: float = 15.0,
) -> tuple[float, float]:
    """Critical point (xh, yh) of Jh (Eq. 7-8).

    ``xh = M (λ + 2) / |T|`` and ``yh = M (λ + 1) / |V|``.  The paper shows
    this is a saddle point, not a minimum, so it is used as a reference for
    heuristics rather than as the operating point.
    """
    _validate(left_buffers, right_buffers, memory_buffers, lam)
    x_h = memory_buffers * (lam + 2.0) / left_buffers
    y_h = memory_buffers * (lam + 1.0) / right_buffers
    return x_h, y_h


def hybrid_join_heuristic_intensities(
    left_buffers: float,
    right_buffers: float,
    memory_buffers: float,
    lam: float = 15.0,
) -> tuple[float, float]:
    """Rule-of-thumb (x, y) following the paper's reading of Figure 2.

    Similar input sizes and a mildly asymmetric device favour Grace join
    (large x and y); a growing size ratio or asymmetry shifts work to
    nested loops over the larger input, staying on or below the
    ``x + y = 1`` diagonal with ``x >= y``.
    """
    _validate(left_buffers, right_buffers, memory_buffers, lam)
    ratio = right_buffers / left_buffers
    if ratio <= 1.5 and lam <= 4.0:
        return 0.9, 0.9
    if ratio <= 1.5:
        return 0.7, 0.3
    # Larger inputs on the right: favour Grace on the small input and
    # nested loops over the large one.
    x = min(0.9, 0.5 + 0.05 * math.log10(ratio) * 4.0)
    y = max(0.1, 1.0 - x)
    return x, y


def segmented_grace_cost(
    materialized_partitions: float,
    left_buffers: float,
    right_buffers: float,
    num_partitions: float,
    read_cost: float = 1.0,
    lam: float = 15.0,
    output_buffers: float = 0.0,
) -> float:
    """Segmented Grace join cost Js(x) (Eq. 9).

    ``Js(x) = r(|T|+|V|) + r x (1+λ)(|T|+|V|)/k + r (k − x)(|T|+|V|)``

    x of the k partitions are materialized and processed as in Grace join;
    the remaining k − x partitions are handled by re-scanning both inputs.
    """
    if num_partitions <= 0:
        raise CostModelError("number of partitions must be positive")
    if not 0.0 <= materialized_partitions <= num_partitions:
        raise CostModelError(
            "materialized partitions must lie in [0, number of partitions]"
        )
    if left_buffers <= 0 or right_buffers <= 0 or lam <= 0:
        raise CostModelError("sizes and lambda must be positive")
    x = materialized_partitions
    k = num_partitions
    total = left_buffers + right_buffers
    body = total + x * (1.0 + lam) * total / k + (k - x) * total
    return read_cost * body + _output_cost(output_buffers, read_cost, lam)


def segmented_grace_beats_grace_bound(num_partitions: float, lam: float) -> float:
    """Upper bound on x for segmented Grace to beat Grace join (Eq. 10).

    ``x < (λ + 1 − k) k / (λ + 1 − k²)``.  When the bound is not meaningful
    (denominator of the wrong sign, k close to λ + 1) the function returns
    ``num_partitions``, i.e. no restriction, matching the paper's remark
    that x is in any case a write-intensity knob.
    """
    if num_partitions <= 0:
        raise CostModelError("number of partitions must be positive")
    if lam <= 0:
        raise CostModelError("lambda must be positive")
    k = num_partitions
    denominator = lam + 1.0 - k * k
    if denominator == 0:
        return num_partitions
    bound = (lam + 1.0 - k) * k / denominator
    if bound <= 0:
        return num_partitions
    return min(bound, num_partitions)


def lazy_hash_materialization_iteration(num_partitions: float, lam: float) -> int:
    """Iteration at which lazy hash join materializes an intermediate input.

    The paper's Eq. 11 sets up the inequality ``n r > (k − n) λ r`` (the
    per-iteration rescan penalty exceeding the remaining write savings) but
    then simplifies it to ``n = floor(k / (λ + 1))``, dropping a λ.  Solving
    the stated inequality gives ``n = floor(k λ / (λ + 1))``, which is also
    the form consistent with the lazy sort threshold (Eq. 5) and with the
    measured behaviour (lazy join approaches the minimal write count).  This
    function returns the corrected closed form.
    """
    if num_partitions <= 0:
        raise CostModelError("number of partitions must be positive")
    if lam <= 0:
        raise CostModelError("lambda must be positive")
    return int(num_partitions * lam / (lam + 1.0))


def lazy_hash_join_cost(
    left_buffers: float,
    right_buffers: float,
    memory_buffers: float,
    read_cost: float = 1.0,
    lam: float = 15.0,
    output_buffers: float = 0.0,
) -> float:
    """Cost estimate for lazy hash join.

    The algorithm performs k = |T|/M iterations; until the Eq. 11 threshold
    it re-reads the full inputs each iteration and writes nothing, then it
    materializes the remainder once and finishes on the shrunken inputs.
    """
    _validate(left_buffers, right_buffers, memory_buffers, lam)
    total = left_buffers + right_buffers
    k = max(1, int(math.ceil(left_buffers / memory_buffers)))
    cost = 0.0
    remaining_partitions = k
    portion = total
    guard = 0
    while remaining_partitions > 0 and guard < 10_000:
        guard += 1
        threshold = max(1, lazy_hash_materialization_iteration(remaining_partitions, lam))
        lazy_iterations = min(threshold, remaining_partitions)
        # Each lazy iteration rescans the whole current portion.
        cost += lazy_iterations * portion * read_cost
        remaining_partitions -= lazy_iterations
        if remaining_partitions > 0:
            # Materialize what is left once, then continue on the smaller input.
            portion = portion * remaining_partitions / (remaining_partitions + lazy_iterations)
            cost += portion * lam * read_cost
    return cost + _output_cost(output_buffers, read_cost, lam)
