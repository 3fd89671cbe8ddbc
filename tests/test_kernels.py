"""The receiver kernels against their per-step references (kernel_reference),
which they must match bit for bit."""

from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import _kernels, sigproc
from kernel_reference import cma_reference, dfe_reference, dse_cma_reference
from sigproc_reference import ROUNDING_GRIDS, exact_label, near_midpoint_grid

BPSK = np.array([1.0 + 0j, -1.0 + 0j])
# labels 0..3; a point on an axis is equally far from two of them
QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def center_spike(nf):
    taps = np.zeros(nf, dtype=np.complex128)
    taps[nf // 2] = 1.0
    return taps


def assert_identical(out, ref):
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def check(kernel, reference, *args):
    """Run the kernel against its per-step reference."""
    ref = reference(*args)
    assert_identical(kernel(*args), ref)
    return ref


def check_cma(*args):
    return check(_kernels.cma_run, cma_reference, *args)


def check_dse_cma(*args):
    return check(_kernels.dse_cma_run, dse_cma_reference, *args)


def check_dfe(*args):
    return check(_kernels.dfe_detect_run, dfe_reference, *args)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_cma_paths_agree(stride):
    check_cma(random_signal(400, 0), center_spike(7), 1e-3, 1.32, 100, stride)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_dse_cma_paths_agree(stride):
    dither = np.random.default_rng(2).uniform(size=200)
    check_dse_cma(random_signal(400, 1), center_spike(5), 1e-3, 1.32,
                  dither, 100, stride)


def test_dse_cma_sign_of_zero_is_zero():
    # from a center spike y[n] = received[3n + 2]; zeroing those samples and
    # drawing u = 0.5 (a zero dither) puts an exact 0 into np.sign at every
    # step, so psi is 0 and the taps never move
    received = random_signal(3 * 30 + 5, 5)
    received[2::3] = 0.0
    y, taps, bad = check_dse_cma(received, center_spike(5), 1e-2, 1.32,
                                 np.full(60, 0.5), 30, 3)
    assert bad == -1 and not np.any(y)
    assert taps.tobytes() == center_spike(5).tobytes()


def test_dse_cma_sign_of_nan_is_nan():
    # a NaN dither draw makes err.real + dither NaN and np.sign keeps it, so
    # the taps turn NaN although every sample is finite
    dither = np.random.default_rng(7).uniform(size=60)
    dither[20] = np.nan
    _, taps, bad = check_dse_cma(random_signal(40, 6), center_spike(5), 1e-3,
                                 1.32, dither, 30, 1)
    assert bad == -1 and np.all(np.isnan(taps))


def test_dse_cma_mean_signed_error_is_cmas():
    """Schniter and Johnson's dithered signed error: with each rail's dither
    uniform on [-alpha, alpha], alpha = r2, the mean of alpha * sign(psi +
    dither) is psi for |psi| <= alpha, so DSE-CMA's mean update is CMA's.
    A one-tap equalizer fed ones at a tiny step holds psi all but fixed, and
    its tap sums the signed errors it applies: over n steps it moves by
    mu * conj(their sum)."""
    r2, mu, n = 1.32, 1e-9, 10_000
    grid = r2 * np.linspace(-0.9, 0.9, 10)
    # a rail's mean of n values in {-r2, r2} has sd at most r2 / sqrt(n); 20
    # rails held to |z| <= 5.45 make a false alarm of 1e-6 in all
    bound = 5.45 * r2 / np.sqrt(n)
    rng = np.random.default_rng(3601)
    psi, applied, sine = [], [], []
    for target in grid + 1j * grid[::-1]:
        # psi = y (r2 - |y|^2) is target at y = -rho target / |target|, with
        # rho the root above sqrt(r2) of rho^3 - r2 rho - |target|
        rho = np.roots([1.0, 0.0, -r2, -abs(target)]).real.max()
        y0 = -rho * target / abs(target)
        u = rng.random(2 * n)
        y, taps, bad = _kernels.dse_cma_run(
            np.ones(n, complex), np.array([y0.conjugate()]), mu, r2, u, n, 1)
        assert bad == -1
        psi.append(np.mean(y * (r2 - np.abs(y) ** 2)))
        applied.append((taps[0] - y0.conjugate()).conjugate() / (mu * n))
        # the arcsine dither r2 sin(2 pi u) on the same draws
        d = r2 * np.sin(2.0 * np.pi * u)
        sine.append(r2 * np.mean(np.sign(target.real + d[0::2])
                                 + 1j * np.sign(target.imag + d[1::2])))
    psi, applied, sine = map(np.array, (psi, applied, sine))
    assert np.abs(psi - (grid + 1j * grid[::-1])).max() < 1e-3
    error = np.concatenate([(applied - psi).real, (applied - psi).imag])
    assert np.abs(error).max() <= bound
    # the arcsine dither fails the same bound
    error = np.concatenate([(sine - psi).real, (sine - psi).imag])
    assert np.abs(error).max() > bound


@pytest.mark.parametrize("variant", ["CMA", "DSE_CMA"])
@pytest.mark.parametrize("steps", [0, 1, 50])
def test_blind_kernels_leave_caller_taps_unchanged(variant, steps):
    # the kernels update their taps in place, on their own copy
    received = random_signal(400, 8)
    taps = center_spike(7) + 0.1 * random_signal(7, 9)
    before = taps.copy()
    if variant == "CMA":
        _, out, bad = _kernels.cma_run(received, taps, 1e-3, 1.32, steps, 2)
    else:
        dither = np.random.default_rng(3).uniform(size=2 * steps)
        _, out, bad = _kernels.dse_cma_run(received, taps, 1e-3, 1.32,
                                           dither, steps, 2)
    assert bad == -1
    assert taps.tobytes() == before.tobytes()
    assert out is not taps
    if steps:
        assert out.tobytes() != before.tobytes()


def test_dfe_paths_agree():
    check_dfe(random_signal(300, 3),
              np.array([0.9, -0.2, 0.05], dtype=complex),
              np.array([-0.4, 0.1], dtype=complex), BPSK,
              np.zeros(2, dtype=np.complex128), 2, 140)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("nb", [0, 1, 3])
def test_dfe_matches_scalar_loop(stride, nb):
    rng = np.random.default_rng(10 * stride + nb)
    w_ff = random_signal(5, stride) * 0.4
    w_fb = random_signal(nb, nb) * 0.2
    history = QPSK[rng.integers(0, 4, size=nb)]
    # 60 symbols need (60 - 1) * stride + 5 samples: the last rows read zeros
    received = random_signal(60 * stride - 4, 7)
    soft, decisions = check_dfe(received, w_ff, w_fb, QPSK, history, stride, 60)
    assert np.all(np.isin(decisions, QPSK))


def test_dfe_no_symbols_on_input_shorter_than_window():
    soft, decisions = check_dfe(random_signal(2, 4), center_spike(5),
                                np.array([0.3 + 0j]), QPSK,
                                np.array([QPSK[2]]), 1, 0)
    assert soft.size == decisions.size == 0


def test_dfe_exact_ties_pick_lowest_label():
    received = np.array([0, 1, -1, -1j, 1j, 2 + 2j], dtype=complex)
    _, decisions = check_dfe(received, np.array([1.0 + 0j]),
                             np.zeros(2, dtype=complex), QPSK,
                             np.zeros(2, dtype=complex), 1, 6)
    assert decisions.tolist() == QPSK[[0, 0, 1, 2, 0, 0]].tolist()


SLICED = {**{s.kind: s.constellation for s in sigproc.SCHEMES.values()},
          **ROUNDING_GRIDS}


@pytest.mark.parametrize("points", SLICED.values(), ids=SLICED)
def test_dfe_slices_near_midpoints_exactly(points):
    # one unit feedforward tap and no feedback: each decision slices a
    # received sample as it is, so the DFE meets sigproc's near-tie grid
    grid = near_midpoint_grid(points)
    empty = np.zeros(0, dtype=complex)
    _, decisions = check_dfe(grid, np.array([1.0 + 0j]), empty, points,
                             empty, 1, grid.size)
    exact = [exact_label(x, points) for x in grid]
    assert decisions.tobytes() == points[exact].tobytes()


@pytest.mark.parametrize("bad", [np.nan, complex(0.3, np.nan), np.inf])
@pytest.mark.parametrize("nb", [0, 2])
def test_dfe_rejects_non_finite_outputs(bad, nb):
    received = random_signal(40, 11)
    received[25] = bad
    args = (received, np.array([1.0 + 0j]), np.full(nb, 0.1 + 0j), QPSK,
            np.zeros(nb, dtype=complex), 1, 40)
    for detect in (_kernels.dfe_detect_run, dfe_reference):
        # the feedforward's 0 * inf is invalid before any slicing happens
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="non-finite"):
            detect(*args)


def sweep_starts(*args):
    """Where each verify sweep of dfe_detect_run(*args) starts."""
    with patch.object(_kernels, "_feedback", wraps=_kernels._feedback) as sweep:
        _kernels.dfe_detect_run(*args)
    return [call.args[5] for call in sweep.call_args_list]


@pytest.mark.parametrize("where", ["first", "edge", "last"])
@pytest.mark.parametrize("bad", [np.nan, complex(0.3, np.nan), np.inf])
def test_dfe_rejects_non_finite_outputs_anywhere(bad, where):
    received = random_signal(64, 12)
    args = [received, np.array([1.0 + 0j]), np.full(2, 0.1 + 0j), QPSK,
            np.zeros(2, dtype=complex), 1, 64]
    # a sweep after the first starts at a block edge; the finite input
    # before it decides the same, so the bad sample's run sweeps from it too
    edges = sweep_starts(*args)[1:]
    assert edges
    received[{"first": 0, "edge": edges[0], "last": 63}[where]] = bad
    for detect in (_kernels.dfe_detect_run, dfe_reference):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="non-finite"):
            detect(*args)


def spacing(points):
    """The least gap between two levels of a rail, or 1 with one level."""
    gaps = []
    for rail in (points.real, points.imag):
        levels = sorted(set(rail.tolist()))
        gaps += [b - a for a, b in zip(levels, levels[1:])]
    return min(gaps, default=1.0)


# |w_fb| in units of the largest point: none, about one level gap, and up to
# feedback that propagates errors (|w_fb| >= 1)
FEEDBACK = ("zero", "gap", 0.3, 1.0, 3.0)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SLICED)),
       stride=st.integers(1, 3), nb=st.integers(0, 8), nf=st.integers(1, 6),
       n_sym=st.integers(0, 500), feedback=st.sampled_from(FEEDBACK),
       block=st.sampled_from([1, 2, 7, 64, _kernels.SWEEP_BLOCK]),
       early=st.sampled_from([1, 5, _kernels.EARLY_FAIL]))
def test_dfe_matches_reference_bit_for_bit(data, name, stride, nb, nf, n_sym,
                                           feedback, block, early):
    points = SLICED[name]
    scale, gap = float(np.abs(points).max()), spacing(points)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # points plus noise of about a level gap; the last windows may run past
    # the end of the input, or every window may
    short = data.draw(st.integers(0, nf + stride))
    size = max(0, (n_sym - 1) * stride + nf - short)
    noise = data.draw(st.sampled_from([0.0, 0.3, 1.0])) * gap
    received = (points[rng.integers(0, points.size, size)]
                + noise * random_signal(size, rng.integers(2**32)))
    w_ff = center_spike(nf)
    w_ff[1:] += data.draw(st.sampled_from([0.0, gap / scale, 0.3])) \
        * random_signal(nf - 1, rng.integers(2**32))
    magnitude = {"zero": 0.0, "gap": gap / scale}.get(feedback, feedback)
    w_fb = magnitude * random_signal(nb, rng.integers(2**32)) / np.sqrt(2.0)
    history = points[rng.integers(0, points.size, nb)]
    # small blocks and thresholds take the halving and the backoff too
    with patch.object(_kernels, "SWEEP_BLOCK", block), \
            patch.object(_kernels, "EARLY_FAIL", early):
        check_dfe(received, w_ff, w_fb, points, history, stride, n_sym)


def test_dfe_repairs_from_the_first_wrong_guess():
    # one feedback tap of -1 on feedforward outputs of 0.5: the loop decides
    # -1, +1, -1, ..., but the speculation slices 0.5 to +1, so the first
    # sweep finds symbol 0 wrong and the repair runs
    with patch.object(_kernels, "_repair", wraps=_kernels._repair) as repair:
        _, decisions = check_dfe(np.full(300, 0.5 + 0j), np.array([1.0 + 0j]),
                                 np.array([-1.0 + 0j]), BPSK,
                                 np.array([1.0 + 0j]), 1, 300)
    assert repair.called
    assert decisions.tolist() == [-1, 1] * 150


@pytest.mark.parametrize("least, walked", [(0, 14), (5, 15)])
def test_dfe_repair_stops_after_the_first_chunk_that_agrees(least, walked):
    # no feedback, so each cell slices its own output; with nb = 2 the chunks
    # end at 2, 6, 14 (least 0) or at 5, 15 (least 5).  The guesses are
    # wrong at symbols 0 and 4 only: the chunks ending at 2, 5 and 6 each
    # have a wrong guess among their last two symbols
    slicer = sigproc.rail_slicer(BPSK)
    ff = np.ones(40, dtype=complex)
    guesses = slicer.cells(ff.real, ff.imag)
    guesses[[0, 4]] = slicer.cells(-ff[:2].real, ff[:2].imag)
    soft, cells = _kernels._repair(ff, guesses, [0j, 0j], deque([0j, 0j], 2),
                                   slicer, BPSK[slicer.cell_labels].tolist(),
                                   least)
    assert len(cells) == walked
    assert soft == ff[:walked].tolist()


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_cma_output_is_a_fixed_order_sum(stride):
    # the regressors are reversed views (a negative stride), on which np.vdot
    # runs numpy's own loop, not BLAS: each y is sum(conj(f_k) * r_k) added
    # for k = 0, 1, ..., nf - 1 in Python's complex arithmetic, whatever
    # kernel the host's BLAS picks
    mu, r2, steps = 1e-3, 1.32, 300
    received = random_signal(steps * stride + 13, 12)
    y, _, bad = _kernels.cma_run(received, center_spike(13), mu, r2, steps, stride)
    assert bad == -1
    taps, expected = center_spike(13), []
    for n in range(steps):
        reg = received[n * stride : n * stride + 13][::-1]
        yn = 0j
        for f, r in zip(taps.tolist(), reg.tolist()):
            yn += f.conjugate() * r
        expected.append(yn)
        # cma_step's update, from this y
        taps = taps + mu * np.conj(yn * (r2 - abs(yn) ** 2)) * reg
    assert y.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_blind_output_is_a_blas_free_sum(stride):
    # as above, for CMA and DSE-CMA, with every tap in play: at mu = 0 the
    # taps hold still, and random taps give every term a part in the sum,
    # where a centre spike leaves one.  BLAS zdotc, which a contiguous
    # regressor would reach, sums in another order
    nf, steps = 13, 300
    taps = random_signal(nf, 20 + stride)
    received = random_signal(steps * stride + nf, 30 + stride)
    dither = np.random.default_rng(stride).uniform(size=2 * steps)
    expected = []
    for n in range(steps):
        yn = 0j
        for t, r in zip(taps.tolist(),
                        received[n * stride : n * stride + nf][::-1].tolist()):
            yn += t.conjugate() * r
        expected.append(yn)
    for y, out, bad in (
            _kernels.cma_run(received, taps, 0.0, 1.32, steps, stride),
            _kernels.dse_cma_run(received, taps, 0.0, 1.32, dither, steps, stride)):
        assert bad == -1 and out.tobytes() == taps.tobytes()
        assert y.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("variant", ["CMA", "DSE_CMA"])
def test_blind_kernels_diverge_where_pythons_abs_overflows(variant):
    # |y| = 1.5e308 * sqrt(2) is past the largest float: Python's abs raises
    # OverflowError on it where numpy's returns inf, so the kernel takes
    # numpy's, and the first step diverges with the taps it started from
    received = random_signal(40, 13)
    received[2] = 1.5e308 * (1 + 1j)
    dither = np.random.default_rng(13).uniform(size=60)
    kernel, reference, args = {
        "CMA": (_kernels.cma_run, cma_reference,
                (received, center_spike(5), 1e-3, 1.32, 30, 1)),
        "DSE_CMA": (_kernels.dse_cma_run, dse_cma_reference,
                    (received, center_spike(5), 1e-3, 1.32, dither, 30, 1)),
    }[variant]
    # the reference's error term of the diverging step is y * -inf; the
    # kernel stops before its own and warns on nothing
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference(*args)
    y, taps, bad = out = kernel(*args)
    assert_identical(out, ref)
    assert bad == 0
    assert y.tobytes() == received[2:3].tobytes()
    assert taps.tobytes() == center_spike(5).tobytes()


def test_dse_cma_kernel_rejects_a_short_dither():
    # 19 draws for 10 steps: the reference fails at the step that finds no
    # pair left, and the kernel must not return 9 steps as a finished run
    received = random_signal(40, 14)
    dither = np.random.default_rng(14).uniform(size=19)
    with pytest.raises(IndexError):
        dse_cma_reference(received, center_spike(5), 1e-3, 1.32, dither, 10, 1)
    with pytest.raises(ValueError):
        _kernels.dse_cma_run(received, center_spike(5), 1e-3, 1.32, dither, 10, 1)


def test_divergence_step_agrees():
    received = 50.0 * random_signal(200, 4)
    _, _, bad = check_cma(received, center_spike(5), 0.5, 1.32, 100, 1)
    assert bad >= 0  # flags the same divergent step as the reference


@pytest.mark.parametrize("variant", ["CMA", "DSE_CMA"])
def test_divergent_output_is_the_defined_prefix(variant):
    received = 50.0 * random_signal(200, 4)
    if variant == "CMA":
        out = _kernels.cma_run(received, center_spike(5), 0.5, 1.32, 100, 1)
    else:
        dither = np.random.default_rng(6).uniform(size=200)
        out = _kernels.dse_cma_run(received, center_spike(5), 0.5, 1.32,
                                   dither, 100, 1)
    y, _, bad = out
    assert 0 <= bad < 99
    assert y.shape == (bad + 1,)
    assert abs(y[-1]) > _kernels.DIVERGENCE_LIMIT
    assert np.all(np.abs(y[:-1]) <= _kernels.DIVERGENCE_LIMIT)


def test_dse_cma_divergence_matches_reference():
    dither = np.random.default_rng(6).uniform(size=200)
    _, _, bad = check_dse_cma(50.0 * random_signal(200, 4), center_spike(5),
                              0.5, 1.32, dither, 100, 2)
    assert bad >= 0


def test_blind_kernels_read_zeros_past_the_stream():
    # 10 steps of stride 2 need 23 samples: a 20-sample stream runs as if
    # padded with three zeros
    received = random_signal(20, 0)
    padded = np.concatenate([received, np.zeros(3, dtype=complex)])
    dither = np.random.default_rng(1).uniform(0.0, 1.0, 20)
    for run in (lambda r: _kernels.cma_run(r, center_spike(5), 1e-3, 1.32, 10, 2),
                lambda r: _kernels.dse_cma_run(r, center_spike(5), 1e-3, 1.32,
                                               dither, 10, 2)):
        (y, taps, bad), (y_pad, taps_pad, bad_pad) = run(received), run(padded)
        assert (y.size, bad, bad_pad) == (10, -1, -1)
        assert y.tobytes() == y_pad.tobytes()
        assert taps.tobytes() == taps_pad.tobytes()


@pytest.mark.parametrize("count, stride, width, size", [
    (10, 1, 3, 12),  # exact fit
    (10, 2, 4, 15),  # last rows run past the end
    (4, 3, 5, 2),  # input shorter than one row
    (0, 2, 5, 3),  # no rows
])
def test_frames_rows_are_zero_padded_slices(count, stride, width, size):
    received = random_signal(size, 9)
    view = _kernels.frames(received, count, stride, width)
    assert view.shape == (count, width)
    for n in range(count):
        row = np.zeros(width, dtype=complex)
        chunk = received[n * stride : n * stride + width]
        row[: chunk.size] = chunk
        assert view[n].tobytes() == row.tobytes()
