import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import channels, equalize, sigproc
from bansim.harness.config import parse_config
from bansim.harness.experiments import run_experiment
from bitstream import random_bits
import channel_reference
from kernel_reference import cma_step, derotate_and_delay_reference

REF_CHANNEL = np.array([0.227, 0.460, 0.688, 0.460, 0.227])


def bpsk_symbols(n, seed):
    return sigproc.modulate(random_bits(n, seed), sigproc.BPSK)


def test_synth_identity_scene():
    sym = bpsk_symbols(100, 0)
    composite = equalize.synth_multiuser([sym], [np.array([1.0 + 0j])], 1, 0.0,
                                         np.random.default_rng(0))
    assert composite.tobytes() == sym.tobytes()


def test_synth_decomposition_identity():
    scheme, ns, seed = sigproc.OQPSK, 2, 3
    streams = [sigproc.modulate(random_bits(200, s), scheme) for s in (1, 2)]
    # unequal lengths: the composite spans the longer contribution
    templates = [np.array([1.0, 0.5, 0.3]), np.array([0.6, 0.9, 0.2, 0.1])]
    sigma = sigproc.noise_sigma(10.0, scheme)
    composite = equalize.synth_multiuser(streams, templates, ns, sigma,
                                         np.random.default_rng(seed))
    # reference: each user upsampled and convolved on its own in a fixed
    # order, less the ns - 1 zeros after its last symbol, noise drawn as
    # N(0, sigma) pairs of (real, imaginary)
    parts = [channel_reference.apply_channel(sym, tpl, ns)[: (sym.size - 1) * ns + tpl.size]
             for sym, tpl in zip(streams, templates)]
    total = max(p.size for p in parts)
    desired, mui = (np.pad(p, (0, total - p.size)) for p in parts)
    g = np.random.default_rng(seed).normal(0.0, sigma, size=(total, 2))
    noise = g[:, 0] + 1j * g[:, 1]
    assert composite.tobytes() == (desired + mui + noise).tobytes()
    assert np.any(mui != 0) and np.any(noise != 0)


def test_estimate_correlations_identity():
    sym = bpsk_symbols(2000, 4)
    gamma_rr, gamma_ar = equalize.estimate_correlations(sym, sym, 1, 1)
    assert gamma_rr[0, 0] == pytest.approx(1.0, abs=0.05)
    assert gamma_ar[0] == pytest.approx(1.0, abs=0.05)


def test_estimate_correlations_pure_noise():
    rng = np.random.default_rng(5)
    noise = rng.normal(size=4000) + 1j * rng.normal(size=4000)
    sym = bpsk_symbols(2000, 6)
    _, gamma_ar = equalize.estimate_correlations(noise, sym, 2, 1)
    assert np.all(np.abs(gamma_ar) < 0.1)


def test_estimate_correlations_hermitian_and_floor():
    sym = bpsk_symbols(100, 7)
    gamma_rr, _ = equalize.estimate_correlations(sym, sym, 3, 1)
    assert np.allclose(gamma_rr, gamma_rr.conj().T)
    with pytest.raises(ValueError, match="^need at least 30 training symbols, got 20$"):
        equalize.estimate_correlations(sym, sym[:20], 3, 1)


def test_wiener_identity_system():
    taps = equalize.wiener_solve(np.eye(3, dtype=complex),
                                 np.array([1.0, 0.0, 0.0], complex), ridge=0.0)
    assert np.allclose(taps, [1.0, 0.0, 0.0])


def test_wiener_linearity_in_crosscorr():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(3, 3))
    gamma_rr = np.asarray(m @ m.T + np.eye(3), complex)
    gamma_ar = np.asarray(rng.normal(size=3), complex)
    w1 = equalize.wiener_solve(gamma_rr, gamma_ar, ridge=0.0)
    w2 = equalize.wiener_solve(gamma_rr, 2.5 * gamma_ar, ridge=0.0)
    assert np.allclose(w2, 2.5 * w1)


def test_wiener_singular_raises():
    gamma_rr, gamma_ar = np.zeros((2, 2), complex), np.array([1.0, 0.0], complex)
    with pytest.raises(np.linalg.LinAlgError):
        equalize.wiener_solve(gamma_rr, gamma_ar, ridge=0.0)
    # a ridge rescues the same system
    taps = equalize.wiener_solve(gamma_rr, gamma_ar, ridge=1e-3)
    assert np.all(np.isfinite(taps))


def test_wiener_beats_taps_on_isi_channel():
    sym = bpsk_symbols(4000, 9)
    rx = channels.apply_channel(sym, np.array([1.0, 0.5], complex), 1)
    rx = sigproc.add_awgn(rx, 20.0, sigproc.BPSK, np.random.default_rng(10))
    gamma_rr, gamma_ar = equalize.estimate_correlations(rx, sym, 5, 1)
    taps = equalize.wiener_solve(gamma_rr, gamma_ar, ridge=0.0)
    est = row_loop_regressors(rx, sym.size, 1, taps.size) @ taps
    mse_w = float(np.mean(np.abs(sym - est) ** 2))
    mse_raw = float(np.mean(np.abs(sym - rx[: sym.size]) ** 2))
    assert mse_w < mse_raw


def row_loop_regressors(received, n_training, ns, n_w):
    """Reference stacking: one regressor row at a time, zero past the end."""
    received = np.asarray(received, dtype=complex)
    frames = np.empty((n_training, n_w), dtype=complex)
    for k in range(n_training):
        chunk = received[k * ns : k * ns + n_w]
        frames[k, : chunk.size] = chunk
        frames[k, chunk.size :] = 0.0
    return frames


@pytest.mark.parametrize("n_training, ns, n_w, size", [
    (300, 1, 5, 304),  # exact fit
    (300, 2, 6, 590),  # the last rows run past the end: zero tail
    (40, 3, 4, 2),  # input shorter than one row
    (0, 2, 3, 10),  # no rows
])
def test_training_regressors_match_row_loop(n_training, ns, n_w, size):
    rng = np.random.default_rng(size)
    rx = rng.normal(size=size) + 1j * rng.normal(size=size)
    frames = equalize._training_regressors(rx, n_training, ns, n_w)
    ref = row_loop_regressors(rx, n_training, ns, n_w)
    assert frames.flags.c_contiguous
    assert (frames.dtype, frames.shape) == (ref.dtype, ref.shape)
    assert frames.tobytes() == ref.tobytes()


def test_linear_mud_and_wiener_mse_unchanged_by_regressor_stacking():
    # bit-identical to the same products on the row-loop frames, including
    # zero-padded tail rows (300 symbols * 2 + 6 taps > 590 samples)
    rng = np.random.default_rng(30)
    rx = rng.normal(size=590) + 1j * rng.normal(size=590)
    sym = sigproc.modulate(random_bits(600, 31), sigproc.OQPSK)[:300]
    taps = rng.normal(size=6) + 1j * rng.normal(size=6)
    ref = row_loop_regressors(rx, 300, 2, 6) @ taps
    soft, _ = equalize.linear_mud_detect(rx, taps, sigproc.OQPSK, 300, 2)
    assert soft.tobytes() == ref.tobytes()
    mse = float(np.mean(np.abs(sym - ref) ** 2))
    assert float(np.mean(np.abs(sym - soft) ** 2)) == mse


def test_linear_mud_blocks_equal_one_stacked_copy():
    # two full blocks of regressor rows and a ragged one, whose last rows
    # run past the end: each soft output as one stacked copy's product
    n = 2 * equalize._MUD_BLOCK + 37
    rng = np.random.default_rng(32)
    rx = rng.normal(size=2 * n + 3) + 1j * rng.normal(size=2 * n + 3)
    taps = rng.normal(size=6) + 1j * rng.normal(size=6)
    soft, decided = equalize.linear_mud_detect(rx, taps, sigproc.OQPSK, n, 2)
    ref = row_loop_regressors(rx, n, 2, 6) @ taps
    assert soft.tobytes() == ref.tobytes()
    assert decided.tobytes() == sigproc.slice_symbols(ref, sigproc.OQPSK).tobytes()


def test_dfe_zero_isi_has_negligible_feedback():
    sym = bpsk_symbols(3000, 11)
    w_ff, w_fb = equalize.dfe_train(sym, sym, nf=1, nb=2, ridge=1e-9, ns=1)
    assert np.linalg.norm(w_fb) < 0.06
    assert abs(w_ff[0] - 1.0) < 0.06


def test_dfe_noiseless_isi_perfect_detection():
    train = bpsk_symbols(2000, 12)
    cir = np.array([1.0, 0.6], complex)
    rx_train = channels.apply_channel(train, cir, 1)
    w_ff, w_fb = equalize.dfe_train(rx_train, train, nf=1, nb=1, ridge=0.0, ns=1)
    assert w_ff[0] == pytest.approx(1.0, abs=1e-6)
    assert w_fb[0] == pytest.approx(-0.6, abs=1e-6)
    payload = bpsk_symbols(10_000, 13)
    rx = channels.apply_channel(payload, cir, 1)
    _, decided = equalize.dfe_detect(rx, w_ff, w_fb, np.zeros(1, dtype=complex),
                                     sigproc.BPSK, num_symbols=payload.size, ns=1)
    assert np.array_equal(decided, payload)


def test_dfe_beats_linear_on_isi():
    train = bpsk_symbols(2000, 14)
    payload = bpsk_symbols(20_000, 15)
    full = np.concatenate([train, payload])
    cir = np.array([1.0, 0.6], complex)
    rx = sigproc.add_awgn(channels.apply_channel(full, cir, 1), 15.0, sigproc.BPSK,
                          np.random.default_rng(16))
    n_w = 5
    gamma_rr, gamma_ar = equalize.estimate_correlations(rx, train, n_w, 1)
    weq = equalize.wiener_solve(gamma_rr, gamma_ar, ridge=1e-9)
    rx_payload = rx[train.size :]
    lin, _ = equalize.linear_mud_detect(rx_payload, weq, sigproc.BPSK, payload.size, 1)
    w_ff, w_fb = equalize.dfe_train(rx, train, nf=3, nb=2, ridge=1e-9, ns=1)
    nl, _ = equalize.dfe_detect(rx_payload, w_ff, w_fb, train[-2:][::-1],
                                sigproc.BPSK, payload.size, 1)
    mse_lin = float(np.mean(np.abs(lin - payload) ** 2))
    mse_dfe = float(np.mean(np.abs(nl - payload) ** 2))
    assert mse_dfe <= mse_lin


def test_dfe_train_needs_ten_symbols_per_tap():
    sym = bpsk_symbols(50, 19)
    with pytest.raises(ValueError, match="at least 50 training"):
        equalize.dfe_train(sym, sym[:49], nf=3, nb=2, ridge=0.0, ns=1)
    w_ff, w_fb = equalize.dfe_train(sym, sym, nf=3, nb=2, ridge=1e-9, ns=1)
    assert (w_ff.size, w_fb.size) == (3, 2)


def test_dfe_train_singular_without_ridge():
    train = bpsk_symbols(200, 20)
    # an all-zero received stream leaves the feedforward block of the joint
    # correlation matrix zero
    silent = np.zeros(200, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        equalize.dfe_train(silent, train, nf=3, nb=2, ridge=0.0, ns=1)
    w_ff, w_fb = equalize.dfe_train(silent, train, nf=3, nb=2, ridge=1e-3, ns=1)
    assert np.all(np.isfinite(w_ff)) and np.all(np.isfinite(w_fb))


def test_dfe_without_feedback_equals_linear():
    sym = bpsk_symbols(500, 17)
    rx = sigproc.add_awgn(sym, 10.0, sigproc.BPSK, np.random.default_rng(18))
    w_ff, empty = np.array([0.9 + 0.1j]), np.zeros(0, dtype=complex)
    soft, decided = equalize.dfe_detect(rx, w_ff, empty, empty, sigproc.BPSK,
                                        num_symbols=sym.size, ns=1)
    soft_lin, decided_lin = equalize.linear_mud_detect(rx, w_ff, sigproc.BPSK,
                                                       sym.size, 1)
    assert np.allclose(soft, soft_lin)
    assert np.array_equal(decided, decided_lin)


def test_dispersion_constant():
    assert equalize.dispersion_constant(sigproc.BPSK) == pytest.approx(1.0)
    assert equalize.dispersion_constant(sigproc.QAM16) == pytest.approx(1.32)
    scaled = sigproc.ModulationScheme("SCALED", 2.0 * sigproc.BPSK.constellation)
    assert equalize.dispersion_constant(scaled) == pytest.approx(4.0)


def test_cma_step_zero_update_on_modulus_circle():
    r2 = equalize.dispersion_constant(sigproc.QAM16)
    taps = np.array([1.0 + 0j])
    y, new = cma_step(taps, 0.01, r2, "CMA", np.array([np.sqrt(r2) + 0j]))
    assert abs(y) ** 2 == pytest.approx(r2)
    assert np.allclose(new, taps)


def test_cma_step_zero_mu_keeps_taps():
    taps = np.array([0.3, 1.0, 0.1], complex)
    _, new = cma_step(taps, 0.0, 1.32, "CMA",
                      np.array([1.0, 2.0, 3.0], dtype=complex))
    assert np.array_equal(new, taps)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    u1=st.floats(0.0, 1.0),
    u2=st.floats(0.0, 1.0),
)
def test_dse_cma_update_bounded(seed, u1, u2):
    rng = np.random.default_rng(seed)
    nf = 5
    taps = rng.normal(size=nf) + 1j * rng.normal(size=nf)
    reg = rng.normal(size=nf) + 1j * rng.normal(size=nf)
    mu, r2 = 0.01, 1.32
    _, new = cma_step(taps, mu, r2, "DSE_CMA", reg, dither_u=(u1, u2))
    delta = np.linalg.norm(new - taps)
    bound = mu * r2 * np.sqrt(2.0) * np.linalg.norm(reg)
    assert delta <= bound + 1e-12


def test_dse_step_requires_dither():
    with pytest.raises(ValueError):
        cma_step(np.ones(3, dtype=complex), 0.01, 1.32, "DSE_CMA",
                 np.ones(3, dtype=complex))


def test_run_blind_identity_channel_fast_convergence():
    scheme = sigproc.QAM8
    sym = sigproc.modulate(random_bits(3 * 2100, 19), scheme)
    r2 = equalize.dispersion_constant(scheme)
    trace, _ = equalize.run_blind(sym, 11, 0.0006, r2, "CMA", 2000, truth=sym,
                                  rng=np.random.default_rng(0), stride=1)
    assert float(np.mean(trace[-200:])) < 1e-3


def test_run_blind_divergence_raises_with_step():
    scheme = sigproc.QAM16
    sym = sigproc.modulate(random_bits(4 * 3000, 20), scheme)
    rx = channels.apply_channel(sym, REF_CHANNEL.astype(complex), 3)
    with pytest.raises(equalize.DivergenceError,
                       match=r"^blind equalizer diverged at step \d+$"):
        equalize.run_blind(rx, 13, 0.05, equalize.dispersion_constant(scheme),
                           "CMA", 2500, truth=sym, rng=np.random.default_rng(0),
                           stride=3)


def test_run_blind_dse_variant_converges_on_identity():
    scheme = sigproc.QAM8
    sym = sigproc.modulate(random_bits(3 * 5100, 22), scheme)
    r2 = equalize.dispersion_constant(scheme)
    trace, _ = equalize.run_blind(sym, 11, 0.0006, r2, "DSE_CMA", 5000,
                                  truth=sym, rng=np.random.default_rng(1), stride=1)
    # the sign-quantized dithered update carries a gradient-noise floor, so
    # steady state hovers near (not at) zero error
    assert float(np.mean(trace[-500:])) < 0.15


def test_agc_normalizes_power():
    rng = np.random.default_rng(23)
    x = 3.7 * (rng.normal(size=1000) + 1j * rng.normal(size=1000))
    y = equalize.agc(x)
    assert float(np.mean(np.abs(y) ** 2)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        equalize.agc(np.zeros(4, dtype=complex))


# symbols on the axes: |t|**2 is exactly 1, so every MSE below is exact
AXES = np.array([1, 1j, -1, -1j])
ROTATIONS = [1, 1j, -1, -1j]


def assert_search_matches_reference(y, truth, nf):
    trace, delay = equalize._derotate_and_delay(y, truth, nf)
    ref_trace, ref_delay = derotate_and_delay_reference(y, truth, nf)
    assert (trace.tobytes(), delay) == (ref_trace.tobytes(), ref_delay)
    return delay


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nf=st.sampled_from([1, 3, 5, 13]),
       n_y=st.integers(1, 400), extra=st.integers(-30, 30),
       period=st.integers(1, 40), shift=st.integers(-16, 16),
       rot=st.sampled_from(ROTATIONS), noise=st.floats(-14.0, 0.5))
def test_screened_delay_search_matches_exhaustive(seed, nf, n_y, extra, period,
                                                  shift, rot, noise):
    # y a rotated, delayed copy of a periodic truth, plus noise from 1e-14
    # to about 3: the delays a period apart tie but for the noise, whose
    # MSEs then differ by less than, near and more than the screen's bound
    rng = np.random.default_rng(seed)
    n_truth = max(1, n_y + extra)
    truth = np.resize(sigproc.QAM16.constellation[rng.integers(0, 16, period)],
                      n_truth)
    y = rot * truth[(np.arange(n_y) + shift) % n_truth]
    y = y + 10.0 ** noise * (rng.normal(size=n_y) + 1j * rng.normal(size=n_y))
    assert_search_matches_reference(y, truth, nf)


def test_delay_search_all_pairs_tied_picks_the_first():
    # y all zero: each of the 27 delays x 4 rotations scores mean |truth|**2,
    # exactly 1, so the first pair, delay -nf and rotation 1, wins
    truth = AXES[np.random.default_rng(3).integers(0, 4, 300)]
    delay = assert_search_matches_reference(np.zeros(280, complex), truth, 13)
    assert delay == -13


@pytest.mark.parametrize("rot", ROTATIONS)
@pytest.mark.parametrize("shift", [-9, 0, 4])
def test_delay_search_tied_delays_pick_the_first(rot, shift):
    # a truth of period 5 and y its rotated copy: every delay in -13..13
    # that is shift plus a multiple of 5 scores exactly 0
    truth = np.resize(AXES[[0, 1, 1, 3, 2]], 400)
    y = rot * truth[(np.arange(380) + shift) % 400]
    delay = assert_search_matches_reference(y, truth, 13)
    assert delay == min(d for d in range(-13, 14) if (d - shift) % 5 == 0)


@pytest.mark.parametrize("side", [0.25, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("later_lower", [False, True])
def test_delay_search_scores_at_the_bound(side, later_lower):
    # y[k] = truth[k - 7], of period 20: delays -7 and 13 score 0 but for
    # one spike, sized so that their MSEs differ by side times the screen's
    # bound, 16 (n + 4) 2**-53 times the mean energy 2, at n = 280.  Their
    # settled halves are y[283:] and y[280:]: a spike at y[281] counts at
    # delay 13 alone, one at y[559] at both, over 277 and 280 terms
    truth = np.resize(AXES[np.random.default_rng(8).integers(0, 4, 20)], 600)
    y = truth[(np.arange(560) - 7) % 600]
    gap = side * 16 * (280 + 4) * 2.0**-53 * 2.0
    if later_lower:
        y[559] += np.sqrt(gap * 277 * 280 / 3)
    else:
        y[281] += np.sqrt(gap * 280)
    assert assert_search_matches_reference(y, truth, 13) == (13 if later_lower else -7)


def test_mud_compare_memory_holds_the_live_arrays():
    # perfbench's mud_compare shape: 2000 training and 40 000 payload symbols
    # at 2 samples per symbol.  In units of one complex per payload symbol
    # (640 kB), what must be live is the composite (2.1) and the desired
    # user's symbols (1.05), and the DFE's look-ahead on top: its feedforward
    # outputs as two rails and as complex values, its guessed cells, its two
    # history rails, its soft outputs and one sweep's four rails (6.5).  The
    # bound adds a unit's slack; held at once, both receivers' outputs, the
    # stacked regressor rows or a zero-padded copy of the stream pass it
    cfg = parse_config("[common]\nseed = 11\n[mud_compare]\nscheme = OQPSK\n"
                       "ebn0_db = 15\nsymbols = 40000\ntraining = 2000\nns = 2\n"
                       "nw = 6\nnb = 3\nridge = 1e-9\n", "mud_compare")
    unit = 40_000 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        [(_, table, _)] = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2.1 + 1.05 + 6.5 + 1) * unit
    assert [row[0] for row in table.rows] == ["dfe_mud", "linear_mud", "matched"]
