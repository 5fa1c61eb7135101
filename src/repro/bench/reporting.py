"""Formatting of experiment results as ASCII tables and series.

The figures and tables (:mod:`repro.bench.figures`) print the rows and
series the paper plots; these helpers keep that formatting in one place so
every report looks uniform.
"""

from __future__ import annotations

from typing import Sequence


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    rows: Sequence[dict],
    columns: Sequence[str],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table restricted to ``columns``."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    header = list(columns)
    body = [[_format_value(row.get(column, "")) for column in header] for row in rows]
    widths = [
        max(len(header[i]), max(len(line[i]) for line in body))
        for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append(separator)
    for line in body:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def format_series(
    rows: Sequence[dict],
    x_column: str,
    y_column: str,
    title: str | None = None,
) -> str:
    """Render rows as one line per algorithm: the series a figure would plot."""
    groups: dict[str, list[tuple]] = {}
    for row in rows:
        groups.setdefault(str(row.get("algorithm", "")), []).append(
            (row.get(x_column), row.get(y_column))
        )
    lines = []
    if title:
        lines.append(title)
    for group in sorted(groups):
        points = ", ".join(
            f"({_format_value(x)}, {_format_value(y)})" for x, y in groups[group]
        )
        lines.append(f"{group}: {points}")
    return "\n".join(lines)


def format_surface(surface) -> str:
    """Render one Figure 2 panel as an ASCII heatmap (dark = expensive)."""
    lines = [
        f"|V|/|T| = {surface.size_ratio:g}, lambda = {surface.lam:g} "
        "(x -> right, y -> down; darker = higher cost)"
    ]
    # Shades from the cheapest cell to the dearest.
    shades = " .:-=+*#%@"
    levels = len(shades) - 1
    for row in surface.normalized:
        lines.append("".join(shades[int(round(value * levels))] for value in row))
    return "\n".join(lines)
