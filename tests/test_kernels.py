"""The receiver kernels against their per-step references (kernel_reference),
which they must match bit for bit."""

import numpy as np
import pytest

from bansim import _kernels
from kernel_reference import cma_reference, dfe_reference, dse_cma_reference

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
    check_dse_cma(random_signal(400, 1), center_spike(5), 1e-3, 1.32, 1.32,
                  dither, 100, stride)


def test_dse_cma_sign_of_zero_is_zero():
    # from a center spike y[n] = received[3n + 2]; zeroing those samples and
    # drawing u = 0 (a zero dither) puts an exact 0 into np.sign at every
    # step, so psi is 0 and the taps never move
    received = random_signal(3 * 30 + 5, 5)
    received[2::3] = 0.0
    y, taps, bad = check_dse_cma(received, center_spike(5), 1e-2, 1.32, 1.0,
                                 np.zeros(60), 30, 3)
    assert bad == -1 and not np.any(y)
    assert taps.tobytes() == center_spike(5).tobytes()


def test_dse_cma_sign_of_nan_is_nan():
    # a NaN dither draw makes err.real + dither NaN and np.sign keeps it, so
    # the taps turn NaN although every sample is finite
    dither = np.random.default_rng(7).uniform(size=60)
    dither[20] = np.nan
    _, taps, bad = check_dse_cma(random_signal(40, 6), center_spike(5), 1e-3,
                                 1.32, 1.32, dither, 30, 1)
    assert bad == -1 and np.all(np.isnan(taps))


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
    soft, decisions, hist = check_dfe(received, w_ff, w_fb, QPSK, history,
                                      stride, 60)
    assert np.all(np.isin(decisions, QPSK))


def test_dfe_no_symbols_on_input_shorter_than_window():
    soft, decisions, hist = check_dfe(random_signal(2, 4), center_spike(5),
                                      np.array([0.3 + 0j]), QPSK,
                                      np.array([QPSK[2]]), 1, 0)
    assert soft.size == decisions.size == 0
    assert hist.tolist() == [QPSK[2]]


def test_dfe_exact_ties_pick_lowest_label():
    received = np.array([0, 1, -1, -1j, 1j, 2 + 2j], dtype=complex)
    _, decisions, hist = check_dfe(received, np.array([1.0 + 0j]),
                                   np.zeros(2, dtype=complex), QPSK,
                                   np.zeros(2, dtype=complex), 1, 6)
    assert decisions.tolist() == QPSK[[0, 0, 1, 2, 0, 0]].tolist()
    assert hist.tolist() == [QPSK[0], QPSK[0]]


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
        out = _kernels.dse_cma_run(received, center_spike(5), 0.5, 1.32, 1.32,
                                   dither, 100, 1)
    y, _, bad = out
    assert 0 <= bad < 99
    assert y.shape == (bad + 1,)
    assert abs(y[-1]) > _kernels.DIVERGENCE_LIMIT
    assert np.all(np.abs(y[:-1]) <= _kernels.DIVERGENCE_LIMIT)


def test_dse_cma_divergence_matches_reference():
    dither = np.random.default_rng(6).uniform(size=200)
    _, _, bad = check_dse_cma(50.0 * random_signal(200, 4), center_spike(5),
                              0.5, 1.32, 1.32, dither, 100, 2)
    assert bad >= 0


def test_blind_kernels_reject_short_streams():
    # 10 steps of stride 2 need 23 samples; nothing diverges before the end
    received = random_signal(20, 0)
    with pytest.raises(ValueError):
        _kernels.cma_run(received, center_spike(5), 1e-3, 1.32, 10, 2)
    with pytest.raises(ValueError):
        _kernels.dse_cma_run(received, center_spike(5), 1e-3, 1.32, 1.32,
                             np.full(20, 0.25), 10, 2)


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


def test_frames_rejects_negative_count():
    with pytest.raises(ValueError):
        _kernels.frames(random_signal(10, 0), -1, 1, 3)
