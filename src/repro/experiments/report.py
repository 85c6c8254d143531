"""Plain-text rendering of experiment results.

The paper reports through figures and tables; this substrate renders
the same content as aligned text tables and ASCII series so every
benchmark can print its reproduction to stdout / the bench log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def ascii_series(xs: Sequence[float], ys: Sequence[float],
                 width: int = 60, height: int = 12,
                 title: Optional[str] = None,
                 marker: str = "*") -> str:
    """A rough ASCII scatter/line chart (for tile-sweep 'figures')."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("series must be equal-length and non-empty")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x0) / xspan * (width - 1))
        row = height - 1 - int((y - y0) / yspan * (height - 1))
        grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y1:12.4g} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"{y0:12.4g} +" + "".join(grid[-1]))
    lines.append(" " * 14 + f"{x0:<12.4g}" + " " * max(width - 24, 0)
                 + f"{x1:>12.4g}")
    return "\n".join(lines)


def section(title: str, body: str) -> str:
    bar = "=" * len(title)
    return f"{title}\n{bar}\n{body}\n"
