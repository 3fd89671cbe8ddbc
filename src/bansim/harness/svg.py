"""Standalone SVG line/scatter plots with deterministic byte output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import ResultTable

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 56
_COLOR = "#1f77b4"


@dataclass
class PlotSpec:
    x: str
    y: str
    title: str
    log_y: bool = False
    markers: bool = False


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _text(x, y, anchor: str, size: int, body: str, fill: str = "") -> str:
    fill = f' fill="{fill}"' if fill else ""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{fill}>{body}</text>')


def _m4(col: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows to draw of a series whose pixel columns ``col`` never decrease:
    each column's first, last, lowest and highest row (M4; Jugel et al.,
    PVLDB 7(10), 2014), the first of equal values, in row order."""
    n = len(col)
    first = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    last = np.r_[first[1:], n] - 1
    counts = last - first + 1
    rows = np.arange(n)

    def first_at(extreme):
        hit = y == np.repeat(extreme.reduceat(y, first), counts)
        return np.minimum.reduceat(np.where(hit, rows, n), first)

    lo, hi = first_at(np.minimum), first_at(np.maximum)
    kept = np.stack([first, np.minimum(lo, hi), np.maximum(lo, hi), last], 1).ravel()
    return kept[np.r_[True, kept[1:] != kept[:-1]]]


def _first_extreme(values: np.ndarray, reduce: np.ufunc) -> float:
    """Python's min (``reduce`` np.fmin) or max (np.fmax) of a column: NaN if
    its first value is NaN, else its first value equal to the extreme of the
    values that are not NaN, which keeps the sign of a zero."""
    if values[0] != values[0]:
        return float(values[0])
    return float(values[np.argmax(values == reduce.reduce(values))])


def emit_svg(table: ResultTable, spec: PlotSpec) -> str:
    # each column read once into floats, as float() reads each cell
    x = np.array(table.column(spec.x), dtype=float)
    y = np.array(table.column(spec.y), dtype=float)
    if spec.log_y:
        bad = np.flatnonzero(y <= 0)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"log-y plot: column {spec.y!r} row {i} has "
                f"non-positive value {float(y[i])}"
            )
    if not x.size:
        raise ValueError("empty table")
    x_lo, x_hi = _first_extreme(x, np.fmin), _first_extreme(x, np.fmax)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    # px and py map a float or a whole column; numpy rounds each operation
    # as Python floats do, and like them raises nothing on inf or nan
    def px(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    # a long, sorted and finite series draws only each pixel column's
    # extremes, which hold every axis extreme; log10 keeps their rows
    if (x.size > _WIDTH - 2 * _MARGIN and np.isfinite(x).all()
            and np.isfinite(y).all() and (x[1:] >= x[:-1]).all()):
        kept = _m4(np.floor(px(x)), y)
        x, y = x[kept], y[kept]
    if spec.log_y:
        # math.log10, whose bits the plots were recorded with
        y = np.array(list(map(math.log10, y.tolist())))
    y_lo, y_hi = _first_extreme(y, np.fmin), _first_extreme(y, np.fmax)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def py(y):
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
        parts.append(_text(_WIDTH // 2, 28, "middle", 15, spec.title))
    for tx in _ticks(x_lo, x_hi):
        parts.append(_text(f"{px(tx):.2f}", _HEIGHT - _MARGIN + 18, "middle", 11,
                           f"{tx:.4g}"))
    for ty in _ticks(y_lo, y_hi):
        label = f"1e{ty:.2f}" if spec.log_y else f"{ty:.4g}"
        parts.append(_text(_MARGIN - 6, f"{py(ty):.2f}", "end", 11, label))
    with np.errstate(all="ignore"):
        xs, ys = px(x).tolist(), py(y).tolist()
    pts = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
        f'stroke-width="1.5"/>'
    )
    if spec.markers:
        circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{_COLOR}"/>'
        parts.extend(map(circle.__mod__, zip(xs, ys)))
    parts.append(_text(_WIDTH - _MARGIN - 4, _MARGIN + 16, "end", 11, spec.y, _COLOR))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
