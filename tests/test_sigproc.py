import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import sigproc
from bitstream import random_bits
import sigproc_reference
from sigproc_reference import (ROUNDING_GRIDS, argmin_labels, exact_label,
                               near_midpoint_grid)

ROOT = Path(__file__).resolve().parent.parent
ALL_SCHEMES = list(sigproc.SCHEMES.values())


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_constellation_invariants(scheme):
    pts = scheme.constellation
    assert pts.size == 2**scheme.bits_per_symbol
    assert len(set(pts)) == pts.size
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


# sha256 of each constellation's bytes; BPSK is in no shipped config, so no
# CSV pin covers its points
CONSTELLATION_SHA256 = {
    "BPSK": "f22632020555098d523f7f407516ba415cf32b8192c8759925bc03e305be5f56",
    "OQPSK": "db860e05d78202f159e28f16fbe26c8e060fc8c65c4b872c8bb3f7fc5915071e",
    "QAM8": "ffbb2a99234b2ccdb8f593f58885ac54e11921da3e187d2cc73654f7ccfac074",
    "QAM16": "699fba4b7ac8e9cbd1ab323653e03e52682d97dfeb6d69d1a88a1c5731d29978",
}


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_constellation_bytes_pinned(scheme):
    digest = hashlib.sha256(scheme.constellation.tobytes()).hexdigest()
    assert digest == CONSTELLATION_SHA256[scheme.kind]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_gray_adjacency(scheme):
    """Points one grid step apart differ in exactly one label bit, and every
    such pair of the rows x cols grid is found."""
    pts = scheme.constellation
    dists = np.abs(pts[:, None] - pts[None, :])
    spacing = dists[dists > 0].min()
    pairs = [(a, b) for a in range(pts.size) for b in range(a + 1, pts.size)
             if dists[a, b] == pytest.approx(spacing, rel=1e-9)]
    for a, b in pairs:
        assert bin(a ^ b).count("1") == 1, (a, b)
    rows, cols = len(set(pts.real.tolist())), len(set(pts.imag.tolist()))
    assert len(pairs) == rows * (cols - 1) + cols * (rows - 1)


def test_bpsk_mapping():
    out = sigproc.modulate(np.array([0, 1]), sigproc.BPSK)
    assert np.allclose(out, [1.0, -1.0])


def test_qam16_label_zero_is_corner():
    pt = sigproc.modulate(np.array([0, 0, 0, 0]), sigproc.QAM16)[0]
    assert abs(pt.real) == pytest.approx(3 / np.sqrt(10))
    assert abs(pt.imag) == pytest.approx(3 / np.sqrt(10))


def test_modulate_rejects_ragged_length():
    with pytest.raises(ValueError):
        sigproc.modulate(np.array([0, 1, 0]), sigproc.QAM16)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_modulate_matches_weighted_labels(scheme, dtype):
    # every label of the scheme, then a random stream, in each bit dtype
    bps = scheme.bits_per_symbol
    labels = np.arange(2**bps)
    every = (labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    every = every.reshape(-1).astype(dtype)
    bits = np.concatenate([every, random_bits(600 * bps, bps).astype(dtype)])
    assert (sigproc.modulate(bits, scheme).tobytes()
            == sigproc_reference.modulate(bits, scheme).tobytes())
    assert sigproc.modulate(every, scheme).tobytes() == scheme.constellation.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    scheme=st.sampled_from(ALL_SCHEMES),
)
def test_roundtrip_property(data, scheme):
    n_sym = data.draw(st.integers(min_value=0, max_value=64))
    bits = data.draw(
        st.lists(
            st.integers(0, 1),
            min_size=n_sym * scheme.bits_per_symbol,
            max_size=n_sym * scheme.bits_per_symbol,
        )
    )
    bits = np.asarray(bits, dtype=np.int8)
    back = sigproc.demodulate(sigproc.modulate(bits, scheme), scheme)
    assert np.array_equal(back, bits)


def test_demodulate_nearest_point():
    assert sigproc.demodulate(np.array([1.1 + 0.05j]), sigproc.BPSK).tolist() == [0]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_demodulate_exact_points(scheme):
    labels = sigproc.nearest_labels(scheme.constellation, scheme)
    assert np.array_equal(labels, np.arange(scheme.constellation.size))


def test_demodulate_tie_breaks_to_lowest_label():
    # 0 is equidistant from +1 (label 0) and -1 (label 1)
    assert sigproc.demodulate(np.array([0.0 + 0.0j]), sigproc.BPSK).tolist() == [0]


def test_awgn_infinite_ebn0_is_identity():
    tx = sigproc.modulate(random_bits(64, 0), sigproc.QAM16)
    noiseless = sigproc.add_awgn(tx, np.inf, sigproc.QAM16, np.random.default_rng(1))
    assert np.array_equal(noiseless, tx)


def test_awgn_variance_calibration():
    # QAM16 at 10 dB: per-dimension variance 1/(2*4*10) = 0.0125
    assert sigproc.noise_sigma(10.0, sigproc.QAM16) ** 2 == pytest.approx(0.0125)
    tx = np.zeros(10**6, dtype=complex)
    noisy = sigproc.add_awgn(tx, 10.0, sigproc.QAM16, np.random.default_rng(7))
    for part in (noisy.real, noisy.imag):
        assert np.var(part) == pytest.approx(0.0125, rel=0.01)


def test_awgn_deterministic_under_seed():
    tx = sigproc.modulate(random_bits(400, 3), sigproc.QAM16)
    a = sigproc.add_awgn(tx, 5.0, sigproc.QAM16, np.random.default_rng(42))
    b = sigproc.add_awgn(tx, 5.0, sigproc.QAM16, np.random.default_rng(42))
    assert np.array_equal(a, b)



@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_slicing_matches_argmin_on_noisy_symbols(scheme):
    rng = np.random.default_rng(len(scheme.constellation))
    tx = rng.integers(0, scheme.constellation.size, size=20_000)
    shifts = np.arange(scheme.bits_per_symbol - 1, -1, -1)
    for sigma in (0.05, 0.3, 3.0):
        noise = rng.normal(0.0, sigma, size=(tx.size, 2))
        rx = scheme.constellation[tx] + noise[:, 0] + 1j * noise[:, 1]
        want = argmin_labels(rx, scheme.constellation)
        assert np.array_equal(sigproc.nearest_labels(rx, scheme), want)
        bits = ((want[:, None] >> shifts) & 1).reshape(-1).astype(np.int8)
        assert sigproc.demodulate(rx, scheme).tobytes() == bits.tobytes()
        assert np.array_equal(sigproc.slice_symbols(rx, scheme),
                              scheme.constellation[want])


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_slicing_near_midpoints_is_exact(scheme):
    """Levels and every midpoint +-4 ulp, on both rails and in the corners.
    The slicer picks the exact nearest point and the lowest label among
    exact ties.  Argmin over rounded distances agrees wherever those
    distances leave no doubt; in the near-tie band it can pick a point that
    is not the nearest (e.g. -2e-323 goes to +1 under BPSK)."""
    grid = near_midpoint_grid(scheme.constellation)
    got = sigproc.nearest_labels(grid, scheme)
    assert got.tolist() == [exact_label(x, scheme.constellation) for x in grid]
    # the DFE's scalar cell is the vector one, ties included
    cells = scheme.slicer.cells(grid.real, grid.imag).tolist()
    assert [scheme.slicer.cell(x) for x in grid.tolist()] == cells
    dists = np.sort(np.abs(grid[:, None] - scheme.constellation[None, :]), axis=1)
    clear = dists[:, 1] > dists[:, 0] * (1 + 1e-12)
    ref = argmin_labels(grid, scheme.constellation)
    assert clear.any() and np.array_equal(got[clear], ref[clear])
    assert np.any(got != ref)  # the declared change lies in the near-tie band


@pytest.mark.parametrize("points", ROUNDING_GRIDS.values(), ids=ROUNDING_GRIDS)
def test_slicing_is_exact_where_midpoints_round(points):
    scheme = sigproc.ModulationScheme("GRID", points)
    grid = near_midpoint_grid(points)
    got = sigproc.nearest_labels(grid, scheme)
    assert got.tolist() == [exact_label(x, points) for x in grid]
    cells = scheme.slicer.cells(grid.real, grid.imag).tolist()
    assert [scheme.slicer.cell(x) for x in grid.tolist()] == cells


@pytest.mark.parametrize("probe", [complex(np.nan, 0.0), complex(np.nan, 0.5),
                                   complex(0.5, np.nan), complex(np.inf, 0.0),
                                   complex(0.5, -np.inf)])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_non_finite_samples_raise(scheme, probe):
    rx = np.array([0.5 + 0.5j, probe])
    for decide in (sigproc.nearest_labels, sigproc.demodulate, sigproc.slice_symbols):
        with pytest.raises(ValueError, match="non-finite"):
            decide(rx, scheme)
    with pytest.raises(ValueError):
        exact_label(probe, scheme.constellation)


@pytest.mark.parametrize("points", [
    [1, 1j, -1, -1j],  # a rotated square: 4 points on a 3 x 3 grid of levels
    [1, 1],  # a point twice
    [1, -1, np.nan],
])
def test_slicer_rejects_non_rectangular_constellations(points):
    with pytest.raises(ValueError):
        sigproc.rail_slicer(np.array(points, dtype=complex))
    with pytest.raises(ValueError):
        sigproc.ModulationScheme("X", np.array(points, dtype=complex))


@pytest.mark.parametrize("points", [[1], [-1, 0, 1], [-3, -1, 1, 3, 5, 7]])
def test_scheme_rejects_a_point_count_not_a_power_of_two(points):
    """A 1-, 3- or 6-level rail is a rectangular grid the slicer takes, but
    no whole number k >= 1 of bits labels its points."""
    constellation = np.array(points, dtype=complex)
    sigproc.rail_slicer(constellation)
    with pytest.raises(ValueError, match=rf"^a constellation needs 2\*\*k points "
                       rf"with k >= 1, got {len(points)}$"):
        sigproc.ModulationScheme("X", constellation)


def test_scheme_derives_bits_per_symbol():
    assert [s.bits_per_symbol for s in ALL_SCHEMES] == [1, 2, 3, 4]
    pam4 = np.array([-3, -1, 1, 3], dtype=complex)
    assert sigproc.ModulationScheme("PAM4", pam4).bits_per_symbol == 2


def test_slicing_leaves_numpy_ma_and_decimal_unimported():
    """np.unique imports numpy.ma (+1.6 MB peak RSS) on first use, and
    fractions imports decimal; neither the slicer nor the DFE may pull them
    in."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from bansim import equalize, sigproc
        for scheme in sigproc.SCHEMES.values():
            sigproc.demodulate(scheme.constellation, scheme)
            sigproc.slice_symbols(scheme.constellation, scheme)
        _, decided = equalize.dfe_detect(
            sigproc.QAM16.constellation, np.array([1.0 + 0j]), np.array([0.1 + 0j]),
            np.zeros(1, dtype=complex), sigproc.QAM16, 16, 1)
        assert decided.size == 16
        print([name for name in ("numpy.ma", "decimal") if name in sys.modules])
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
