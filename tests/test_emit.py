"""CSV and SVG emission against the per-cell references (emit_reference),
whose bytes it must reproduce; a long plot against the reference drawing the
rows kept_rows_reference picks."""

import math
import re

import numpy as np
import pytest

from bansim.harness.svg import PlotSpec, _m4, emit_svg
from bansim.harness.table import ResultTable
from emit_reference import (emit_svg_reference, kept_rows_reference,
                            pixel_columns_reference, to_csv_reference)

# the plot area is 528 px wide; x falls in the 529 whole pixel columns
# from 56 to 584, the right edge its own
PLOT_PX = 528

FLOATS = [0.1, 1 / 3, -2.5, float("nan"), float("inf"), float("-inf"), -0.0,
          0.0, 1e300, 5e-324, 1e16, 123456789012.0]
# one cell of every kind a column may hold, two of them holding a '%'
CELLS = FLOATS + [0, -3, 10**30, "text", "50%", "%s%%", ""]
# cells of kinds no column holds: bools, numpy scalars and None
REFUSED = [True, False, np.bool_(True), np.bool_(False),
           np.float64(0.1234567890123), np.float64("nan"), np.int64(-7),
           np.int64(2**62), None]


def table_of(**columns):
    return ResultTable(columns, seed=3, config_hash="feed")


def assert_csv_matches(table):
    assert table.to_csv() == to_csv_reference(table)


def trace(n, seed):
    """A CMA-like trace: iterations and squared errors over six decades."""
    rng = np.random.default_rng(seed)
    mse = 10.0 ** rng.uniform(-5.0, 1.0, size=n)
    return table_of(iteration=list(range(n)), mse=mse.tolist())


def rows_of(table, rows):
    return table_of(**{name: [values[i] for i in rows]
                       for name, values in table.columns.items()})


def assert_svg_matches(table, spec, rows):
    assert emit_svg(table, spec) == emit_svg_reference(rows_of(table, rows), spec)


@pytest.mark.parametrize("log_y", [False, True])
@pytest.mark.parametrize("markers", [False, True])
def test_long_trace_matches_reference(log_y, markers):
    # drawn as the reference draws the rows kept_rows_reference keeps
    table = trace(30_000, 1)
    spec = PlotSpec("iteration", "mse", title="trace", log_y=log_y,
                    markers=markers)
    rows = kept_rows_reference(table, spec)
    assert len(rows) <= 4 * (PLOT_PX + 1)
    assert_svg_matches(table, spec, rows)
    assert_csv_matches(table)


def edited_trace(n, edit):
    table = trace(n, 2)
    iteration, mse = (table.column(name) for name in ("iteration", "mse"))
    if edit == "crowded x":
        # squares: the first 23 rows share the first pixel column
        iteration = [i * i for i in iteration]
    elif edit == "unsorted x":
        iteration[100], iteration[101] = iteration[101], iteration[100]
    elif edit == "inf x":
        # sorted, and not finite
        iteration = [*map(float, iteration[:-1]), float("inf")]
    elif edit == "nan y":
        mse[n // 2] = float("nan")
    return table_of(iteration=iteration, mse=mse)


# a series is decimated when it is longer than the plot is wide, sorted by x
# and finite; each case breaks one condition, or none
@pytest.mark.parametrize("n,edit,decimated", [
    (PLOT_PX, "crowded x", False),
    (PLOT_PX + 1, "crowded x", True),
    (30_000, "unsorted x", False),
    (30_000, "inf x", False),
    (30_000, "nan y", False),
])
@pytest.mark.parametrize("log_y", [False, True])
def test_decimation_conditions_match_reference(n, edit, decimated, log_y):
    table = edited_trace(n, edit)
    spec = PlotSpec("iteration", "mse", title="", log_y=log_y, markers=True)
    rows = kept_rows_reference(table, spec)
    assert (len(rows) < n) == decimated
    assert_svg_matches(table, spec, rows)


def rows_by_column(xs):
    columns = {}
    for i, col in enumerate(pixel_columns_reference(xs)):
        columns.setdefault(col, []).append(i)
    return columns


def m4_series(shape):
    n = 5000
    xs = list(range(n))
    if shape == "flat":
        ys = [2.0] * n
    elif shape == "monotone":
        ys = [0.001 * i for i in range(n)]
    elif shape == "spiky":
        # one outlier per column, up and down in turn, on low noise
        ys = np.random.default_rng(4).normal(scale=0.01, size=n).tolist()
        for k, rows in enumerate(rows_by_column(xs).values()):
            ys[rows[len(rows) // 2]] = 5.0 if k % 2 else -5.0
    elif shape == "log-axis":
        ys = (10.0 ** np.random.default_rng(5).uniform(-6.0, 2.0, size=n)).tolist()
    else:
        # 40 distinct x, each repeated, so a column holds many equal x, and
        # five levels of y, so its lowest and highest rows tie
        xs = [i // 125 for i in range(n)]
        ys = np.random.default_rng(6).integers(0, 5, size=n).astype(float).tolist()
    return xs, ys


@pytest.mark.parametrize("shape,n_columns", [
    ("flat", PLOT_PX + 1), ("monotone", PLOT_PX + 1), ("spiky", PLOT_PX + 1),
    ("log-axis", PLOT_PX + 1), ("repeated x", 40),
])
def test_m4_keeps_each_columns_extremes(shape, n_columns):
    xs, ys = m4_series(shape)
    cols = pixel_columns_reference(xs)
    kept = _m4(np.array(cols), np.array(ys)).tolist()
    assert all(a < b for a, b in zip(kept, kept[1:]))
    columns = rows_by_column(xs)
    assert len(columns) == n_columns
    kept_in = {col: [] for col in columns}
    for i in kept:
        kept_in[cols[i]].append(i)
    for col, rows in columns.items():
        assert 1 <= len(kept_in[col]) <= 4
        # the first of equal values is the one kept
        assert {rows[0], rows[-1], min(rows, key=ys.__getitem__),
                max(rows, key=ys.__getitem__)} <= set(kept_in[col])
    if shape == "log-axis":
        # log10 keeps the order, so the kept rows hold each column's extremes
        logs = [math.log10(v) for v in ys]
        for col, rows in columns.items():
            for pick in (min, max):
                assert (pick(logs[i] for i in kept_in[col])
                        == pick(logs[i] for i in rows))


@pytest.mark.parametrize("cell", CELLS, ids=repr)
def test_single_kind_columns_match_reference(cell):
    # the cell alone, and next to a column of every cell of its kind
    assert_csv_matches(table_of(a=[cell]))
    kin = [c for c in CELLS if type(c) is type(cell)]
    assert_csv_matches(table_of(a=[cell] * len(kin), b=kin))


MIXED = {"int+float": [0, 0.5], "float+str": [0.5, "x"], "int+str": [1, "1"],
         "float+None": [0.5, None], "float+np.float64": [0.5, np.float64(0.5)]}


@pytest.mark.parametrize("cells", [pytest.param([c], id=repr(c)) for c in REFUSED]
                         + [pytest.param(c, id=k) for k, c in MIXED.items()])
def test_unsupported_columns_raise(cells):
    # a bool, a numpy scalar, None or a mix of kinds has no one format
    with pytest.raises(ValueError, match="^column 'b' holds "):
        table_of(a=[0.5] * len(cells), b=cells)


def test_float_column_formats_like_reference():
    rng = np.random.default_rng(8)
    values = np.concatenate([
        rng.normal(size=2000) * 10.0 ** rng.integers(-320, 308, size=2000),
        rng.integers(-10**6, 10**6, size=500).astype(float),
        np.nextafter(0.0, 1.0) * rng.integers(1, 9, size=50),
    ])
    assert_csv_matches(table_of(v=values.tolist()))


@pytest.mark.parametrize("columns", [
    {"i": [], "f": [], "s": []}, {"i": [1], "f": [0.5], "s": ["x"]}, {},
], ids=["0 rows", "1 row", "no columns"])
def test_short_tables_match_reference(columns):
    assert_csv_matches(table_of(**columns))


@pytest.mark.parametrize("ragged", [[0.5], [0.5, 0.25, 0.125], []])
def test_ragged_rows_raise(ragged):
    # columns of unequal length, whose rows would be ragged, are an error,
    # never rows cut to fit
    with pytest.raises(ValueError, match=re.escape(
            f"columns differ in length: {{'i': 2, 'f': {len(ragged)}}}")):
        table_of(i=[0, 1], f=ragged)


@pytest.mark.parametrize("ys", [
    [1.0, float("inf"), 3.0],
    [1.0, float("nan"), 3.0],
    [float("inf"), float("-inf"), 0.0],
    [-0.0, 1e300, 5e-324],
    [1e-300, 1e300, 2.0],
], ids=repr)
@pytest.mark.parametrize("log_y", [False, True])
def test_special_values_plot_like_reference(ys, log_y):
    # x holds ints, which float() reads
    table = table_of(x=[0, 2, 1], y=ys)
    spec = PlotSpec("x", "y", title="", log_y=log_y, markers=True)
    try:
        want = emit_svg_reference(table, spec)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            emit_svg(table, spec)
    else:
        assert emit_svg(table, spec) == want


@pytest.mark.parametrize("columns", [{"x": [2.0], "y": [3.0]},
                                     {"x": [1.0, 1.0], "y": [4.0, 4.0]}],
                         ids=["1 row", "flat"])
def test_flat_axes_plot_like_reference(columns):
    table = table_of(**columns)
    for log_y in (False, True):
        spec = PlotSpec("x", "y", title="", log_y=log_y, markers=True)
        assert emit_svg(table, spec) == emit_svg_reference(table, spec)


def test_empty_table_plot_raises_like_reference():
    table = table_of(x=[], y=[])
    for log_y in (False, True):
        for emit in (emit_svg, emit_svg_reference):
            with pytest.raises(ValueError, match="empty table"):
                emit(table, PlotSpec("x", "y", title="", log_y=log_y))
