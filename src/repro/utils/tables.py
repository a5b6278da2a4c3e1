"""Plain-text table and chart rendering for experiment reports.

The experiment runner prints the same rows/series the paper reports; these
helpers render them as aligned monospace tables and simple ASCII line plots
so results are readable in a terminal and in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.4g}",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table."""
    str_rows = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_fmt.format(cell))
            else:
                cells.append(str(cell))
        str_rows.append(cells)
    widths = [len(h) for h in headers]
    for cells in str_rows:
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for cells in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def ascii_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    *,
    width: int = 72,
    height: int = 20,
    logx: bool = False,
    logy: bool = False,
    title: str | None = None,
) -> str:
    """Render named ``(x, y)`` series as an ASCII scatter/line chart.

    Each series is drawn with a distinct marker; a legend maps markers back
    to series names.  Intended for the figure-reproduction scripts, which
    care about curve *shape* (orderings and crossings), not print quality.
    """
    markers = "*o+x#@%&"
    points = []
    for name, pts in series.items():
        for x, y in pts:
            points.append((float(x), float(y)))
    if not points:
        return "(empty plot)"

    def tx(x: float) -> float:
        return math.log10(x) if logx else x

    def ty(y: float) -> float:
        return math.log10(y) if logy else y

    xs = [tx(p[0]) for p in points]
    ys = [ty(p[1]) for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(markers, series.items()):
        for x, y in pts:
            col = int(round((tx(x) - xmin) / xspan * (width - 1)))
            row = int(round((ty(y) - ymin) / yspan * (height - 1)))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    top = f"{(10 ** ymax if logy else ymax):.4g}"
    bottom = f"{(10 ** ymin if logy else ymin):.4g}"
    lines.append(f"y max = {top}")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    left = f"{(10 ** xmin if logx else xmin):.4g}"
    right = f"{(10 ** xmax if logx else xmax):.4g}"
    lines.append(f"y min = {bottom}; x: {left} .. {right}")
    for marker, name in zip(markers, series.keys()):
        lines.append(f"  {marker} = {name}")
    return "\n".join(lines)
