"""CSV and SVG emission against the per-cell references (emit_reference),
whose bytes it must reproduce."""

import re

import numpy as np
import pytest

from bansim.harness.svg import PlotSpec, emit_svg
from bansim.harness.table import ResultTable
from emit_reference import emit_svg_reference, to_csv_reference

FLOATS = [0.1, 1 / 3, -2.5, float("nan"), float("inf"), float("-inf"), -0.0,
          0.0, 1e300, 5e-324, 1e16, 123456789012.0]
# one cell of every kind a table may hold, two of them holding a '%'
CELLS = FLOATS + [
    True, False, np.bool_(True), np.bool_(False), np.float64(0.1234567890123),
    np.float64("nan"), np.int64(-7), np.int64(2**62), 0, -3, 10**30,
    "text", "50%", "%s%%", "", None,
]


def table_of(columns, rows):
    table = ResultTable(columns, seed=3, config_hash="feed")
    for row in rows:
        table.append(*row)
    return table


def assert_csv_matches(table):
    assert table.to_csv() == to_csv_reference(table)


def trace(n, seed):
    """A CMA-like trace: iterations and squared errors over six decades."""
    rng = np.random.default_rng(seed)
    mse = 10.0 ** rng.uniform(-5.0, 1.0, size=n)
    return table_of(["iteration", "mse"], zip(range(n), mse.tolist()))


@pytest.mark.parametrize("log_y", [False, True])
@pytest.mark.parametrize("markers", [False, True])
def test_long_trace_matches_reference(log_y, markers):
    table = trace(30_000, 1)
    spec = PlotSpec("iteration", "mse", title="trace", log_y=log_y,
                    markers=markers)
    assert emit_svg(table, spec) == emit_svg_reference(table, spec)
    assert_csv_matches(table)


@pytest.mark.parametrize("cell", CELLS, ids=repr)
def test_single_kind_columns_match_reference(cell):
    # the cell alone, next to each other kind, and in a column of its own kind
    rows = [[cell, other, cell] for other in CELLS]
    assert_csv_matches(table_of(["a", "b", "c"], rows))


def test_mixed_tables_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        picks = rng.integers(len(CELLS), size=(30, 4))
        assert_csv_matches(table_of(list("abcd"), [[CELLS[i] for i in row]
                                                   for row in picks.tolist()]))


def test_float_column_formats_like_reference():
    rng = np.random.default_rng(8)
    values = np.concatenate([
        rng.normal(size=2000) * 10.0 ** rng.integers(-320, 308, size=2000),
        rng.integers(-10**6, 10**6, size=500).astype(float),
        np.nextafter(0.0, 1.0) * rng.integers(1, 9, size=50),
    ])
    assert_csv_matches(table_of(["v"], ([v] for v in values.tolist())))


@pytest.mark.parametrize("rows", [[], [[1, 0.5, "x"]]], ids=["0 rows", "1 row"])
def test_short_tables_match_reference(rows):
    assert_csv_matches(table_of(["i", "f", "s"], rows))


def test_tables_without_columns_match_reference():
    table = ResultTable([])
    table.rows += [[], []]
    assert_csv_matches(table)


def test_rows_appended_directly_match_reference():
    table = table_of(["i", "f"], [(0, 0.5)])
    table.rows += [(1, 0.25), [2, np.float64(0.125)]]
    assert_csv_matches(table)


@pytest.mark.parametrize("ragged", [[5], [5, 0.5, "extra"], []])
def test_ragged_rows_raise(ragged):
    # a row of the wrong width is an error, never a row cut to fit
    table = table_of(["i", "f"], [(0, 0.5)])
    table.rows.append(ragged)
    with pytest.raises(ValueError, match=f"row 1 has {len(ragged)} cells, "
                                         "table has 2 columns"):
        table.to_csv()


@pytest.mark.parametrize("ys", [
    [1.0, float("inf"), 3.0],
    [1.0, float("nan"), 3.0],
    [float("inf"), float("-inf"), 0.0],
    [-0.0, 1e300, 5e-324],
    [1e-300, 1e300, 2.0],
], ids=repr)
@pytest.mark.parametrize("log_y", [False, True])
def test_special_values_plot_like_reference(ys, log_y):
    # x holds ints, numpy scalars and bools; float() reads them all
    table = table_of(["x", "y"], zip([0, np.int64(2), True], ys))
    spec = PlotSpec("x", "y", log_y=log_y, markers=True)
    try:
        want = emit_svg_reference(table, spec)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            emit_svg(table, spec)
    else:
        assert emit_svg(table, spec) == want


@pytest.mark.parametrize("rows", [[(2.0, 3.0)], [(1.0, 4.0), (1.0, 4.0)]],
                         ids=["1 row", "flat"])
def test_flat_axes_plot_like_reference(rows):
    table = table_of(["x", "y"], rows)
    for log_y in (False, True):
        spec = PlotSpec("x", "y", log_y=log_y, markers=True)
        assert emit_svg(table, spec) == emit_svg_reference(table, spec)


def test_empty_table_plot_raises_like_reference():
    table = table_of(["x", "y"], [])
    for log_y in (False, True):
        for emit in (emit_svg, emit_svg_reference):
            with pytest.raises(ValueError, match="empty table"):
                emit(table, PlotSpec("x", "y", log_y=log_y))
