"""Plain-text table and series rendering for experiment output.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output aligned and readable without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[object],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    str_headers = [_cell(h) for h in headers]
    widths = [len(h) for h in str_headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i >= len(widths):
                widths.append(len(cell))
            else:
                widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(str_headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def render_series(
    x: Sequence[float],
    y: Sequence[float],
    label: str = "",
) -> str:
    """Render an (x, y) series as a one-line-per-point ASCII bar chart.

    Used to show the *shape* of figure reproductions (knees, tapering error
    curves) directly in benchmark output.  The longest bar is 60 characters.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if not x:
        return label
    lo = min(y)
    hi = max(y)
    span = (hi - lo) or 1.0
    lines = [label] if label else []
    for xv, yv in zip(x, y):
        bar = "#" * max(1, int(round((yv - lo) / span * 60)))
        lines.append(f"{_cell(xv):>10} | {bar} {yv:.4g}")
    return "\n".join(lines)
