"""The hybrid-join cost surface of Figure 2.

Figure 2 plots the hybrid Grace/nested-loops cost function Jh(x, y) as a
heatmap for nine combinations of input-cardinality ratio (|T|/|V| of 1, 10
and 100 -- the figure's captions give the larger-over-smaller ratio) and
write/read asymmetry (lambda of 2, 5, 8).  The surface below reproduces
those panels: costs are normalized to [0, 1] per panel because, as the
paper notes, only the trends matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.joins.cost import hybrid_join_cost

#: The panel grid of Figure 2.
FIGURE2_SIZE_RATIOS = (1.0, 10.0, 100.0)
FIGURE2_LAMBDAS = (2.0, 5.0, 8.0)


@dataclass(frozen=True)
class CostSurface:
    """One heatmap panel: normalized Jh over a grid of (x, y)."""

    size_ratio: float
    lam: float
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    #: normalized[i][j] is the cost at (x_values[j], y_values[i]), in [0, 1].
    normalized: tuple[tuple[float, ...], ...]

    def minimum_cell(self) -> tuple[float, float]:
        """The (x, y) grid point with the lowest cost."""
        best = (0, 0)
        best_value = self.normalized[0][0]
        for i, row in enumerate(self.normalized):
            for j, value in enumerate(row):
                if value < best_value:
                    best_value = value
                    best = (i, j)
        return self.x_values[best[1]], self.y_values[best[0]]

    def value_at(self, x: float, y: float) -> float:
        """Normalized cost at the grid point nearest to (x, y)."""
        j = min(range(len(self.x_values)), key=lambda k: abs(self.x_values[k] - x))
        i = min(range(len(self.y_values)), key=lambda k: abs(self.y_values[k] - y))
        return self.normalized[i][j]


def hybrid_cost_surface(
    size_ratio: float,
    lam: float,
    grid_points: int = 21,
    left_buffers: float = 10_000.0,
    memory_fraction: float = 0.12,
) -> CostSurface:
    """Compute one Figure 2 panel.

    Args:
        size_ratio: |V| / |T| (1, 10 or 100 in the paper).
        lam: write/read cost ratio (2, 5 or 8 in the paper).
        grid_points: resolution of the x/y grid over (0, 1).
        left_buffers: size of the smaller input in cachelines; the absolute
            value only scales the surface and cancels in the normalization.
        memory_fraction: M as a fraction of sqrt(1.2 |T|) head-room; the
            paper assumes M > sqrt(1.2 |T|) so Grace join is applicable.
    """
    if size_ratio < 1.0:
        raise ConfigurationError("size_ratio is |V|/|T| and must be >= 1")
    if grid_points < 2:
        raise ConfigurationError("grid needs at least two points per axis")
    right_buffers = left_buffers * size_ratio
    # Memory just above the Grace applicability bound, as in the paper.
    memory = max(2.0, (1.2 * left_buffers) ** 0.5 * (1.0 + memory_fraction))
    step = 1.0 / (grid_points - 1)
    xs = tuple(min(1.0, max(0.0, i * step)) for i in range(grid_points))
    ys = xs
    raw: list[list[float]] = []
    for y in ys:
        row = []
        for x in xs:
            row.append(
                hybrid_join_cost(x, y, left_buffers, right_buffers, memory, 1.0, lam)
            )
        raw.append(row)
    low = min(min(row) for row in raw)
    high = max(max(row) for row in raw)
    span = high - low or 1.0
    normalized = tuple(
        tuple((value - low) / span for value in row) for row in raw
    )
    return CostSurface(
        size_ratio=size_ratio,
        lam=lam,
        x_values=xs,
        y_values=ys,
        normalized=normalized,
    )
