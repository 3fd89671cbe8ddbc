"""Per-cell and per-point references for CSV and SVG emission.

``to_csv_reference`` is ``ResultTable.to_csv`` as it formatted one cell at a
time, and ``emit_svg_reference`` is ``emit_svg`` as it mapped and formatted
one point at a time; both are kept verbatim, with the helpers and constants
they read.  The emitters must reproduce their bytes; ``test_emit.py`` checks
that on long traces and on tables of every cell type.  ``kept_rows_reference``
picks, one point at a time, the rows ``emit_svg`` draws of a long series.
"""

import math

from bansim import __version__

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 56
_COLOR = "#1f77b4"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def to_csv_reference(self) -> str:
    lines = [
        f"# bansim_version={__version__}",
        f"# seed={self.seed}",
        f"# config_hash={self.config_hash}",
        ",".join(self.columns),
    ]
    for row in zip(*self.columns.values()):
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def emit_svg_reference(table, spec) -> str:
    xs = [float(v) for v in table.column(spec.x)]
    ys = [float(v) for v in table.column(spec.y)]
    if spec.log_y:
        for i, v in enumerate(ys):
            if v <= 0:
                raise ValueError(
                    f"log-y plot: column {spec.y!r} row {i} has "
                    f"non-positive value {v}"
                )
        ys = [math.log10(v) for v in ys]
    if not xs:
        raise ValueError("empty table")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#333"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_WIDTH // 2}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{spec.title}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_HEIGHT - _MARGIN + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{tx:.4g}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        label = f"1e{ty:.2f}" if spec.log_y else f"{ty:.4g}"
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(ty):.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
        f'stroke-width="1.5"/>'
    )
    if spec.markers:
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                f'fill="{_COLOR}"/>'
            )
    parts.append(
        f'<text x="{_WIDTH - _MARGIN - 4}" y="{_MARGIN + 16}" '
        f'text-anchor="end" font-family="sans-serif" font-size="11" '
        f'fill="{_COLOR}">{spec.y}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def pixel_columns_reference(xs: list[float]) -> list[int]:
    """The whole pixel column each x falls in, as ``emit_svg_reference``'s
    ``px`` places it."""
    lo, hi = min(xs), max(xs)
    if hi == lo:
        hi = lo + 1.0
    return [math.floor(_MARGIN + (x - lo) / (hi - lo) * (_WIDTH - 2 * _MARGIN))
            for x in xs]


def kept_rows_reference(table, spec) -> list[int]:
    """The rows ``emit_svg`` draws, found one point at a time: every row, or
    for a series longer than the plot is wide, sorted by x and finite, each
    pixel column's first, last, lowest and highest row (the first of equal
    values), in row order."""
    xs = [float(v) for v in table.column(spec.x)]
    ys = [float(v) for v in table.column(spec.y)]
    if (len(xs) <= _WIDTH - 2 * _MARGIN
            or not all(math.isfinite(v) for v in xs + ys)
            or any(b < a for a, b in zip(xs, xs[1:]))):
        return list(range(len(xs)))
    columns: dict[int, list[int]] = {}
    for i, col in enumerate(pixel_columns_reference(xs)):
        columns.setdefault(col, []).append(i)
    kept = set()
    for rows in columns.values():
        kept.update((rows[0], rows[-1], min(rows, key=ys.__getitem__),
                     max(rows, key=ys.__getitem__)))
    return sorted(kept)
