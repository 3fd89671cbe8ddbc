"""Receivers: multiuser synthesis, linear MMSE detection, decision-feedback
equalization, and blind CMA / dithered signed-error CMA adaptation.

Conventions: equalizer outputs are plain inner products ``w @ r`` with the
tap vector stored so that no extra conjugation is needed at detection time
(the blind equalizers use ``f^H r`` internally and expose the same ``y``).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .channels import apply_channel
from .sigproc import ModulationScheme, _complex_normal, slice_symbols


_TINY = np.finfo(float).tiny
# symbols per block of linear_mud_detect's regressor rows, not one stacked
# copy: a multiple of 4, as a BLAS kernel may group rows by four
_MUD_BLOCK = 4096


class DivergenceError(RuntimeError):
    """Blind adaptation left the stable region."""


def synth_multiuser(streams: list[np.ndarray], templates: list[np.ndarray],
                    ns: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Composite of every user's symbols, one per ns samples, convolved with
    its template (channel * signature), plus complex white noise of
    per-dimension deviation sigma; user 0 is the desired user."""
    total = max((len(sym) - 1) * ns + len(tpl) for sym, tpl in zip(streams, templates))
    composite = np.zeros(total, dtype=complex)
    # interferers, then user 0, then noise: rounded as desired + mui + noise
    for user in [*range(1, len(streams)), 0]:
        sym, tpl = streams[user], templates[user]
        # less the ns - 1 zeros apply_channel inserts after the last symbol
        contrib = apply_channel(sym, tpl, ns)[: (len(sym) - 1) * ns + len(tpl)]
        composite[: contrib.size] += contrib
    composite += _complex_normal(rng, sigma, total)
    return composite


def _training_regressors(received: np.ndarray, n_training: int, ns: int, n_w: int):
    """Stack one length-n_w regressor per symbol; zero past the end."""
    # contiguous rows keep the matmuls that follow on their BLAS path
    return np.ascontiguousarray(_kernels.frames(received, n_training, ns, n_w))


def _correlations(rows: np.ndarray, training: np.ndarray):
    """(Gamma_rr, gamma_ar) of one regressor row per training symbol."""
    n_w = rows.shape[1]
    if training.size < 10 * n_w:
        # too few for a stable correlation estimate
        raise ValueError(
            f"need at least {10 * n_w} training symbols, got {training.size}"
        )
    gamma_rr = rows.conj().T @ rows / training.size
    gamma_ar = training @ rows.conj() / training.size
    return gamma_rr, gamma_ar


def _solve(gamma_rr: np.ndarray, gamma_ar: np.ndarray, ridge: float):
    """Taps w of (Gamma_rr + ridge I) w = gamma_ar, applied as rows @ w."""
    a = gamma_rr + ridge * np.eye(gamma_rr.shape[0])
    if ridge == 0.0 and np.linalg.cond(a) > 1e12:
        raise np.linalg.LinAlgError("correlation matrix is singular; add ridge")
    return np.linalg.solve(a, gamma_ar)


def estimate_correlations(
    received: np.ndarray, training: np.ndarray, n_w: int, ns: int
):
    return _correlations(_training_regressors(received, training.size, ns, n_w),
                         training)


def wiener_solve(gamma_rr: np.ndarray, gamma_ar: np.ndarray,
                 ridge: float) -> np.ndarray:
    """Wiener taps w = gamma_ar @ inv(Gamma_rr), ridge-regularized."""
    return _solve(gamma_rr, gamma_ar, ridge)


def linear_mud_detect(
    received: np.ndarray, taps: np.ndarray, scheme: ModulationScheme,
    num_symbols: int, ns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(soft outputs, hard decisions) of the tap vector on each symbol."""
    soft = np.empty(num_symbols, dtype=complex)
    for start in range(0, num_symbols, _MUD_BLOCK):
        stop = min(num_symbols, start + _MUD_BLOCK)
        soft[start:stop] = _training_regressors(
            received[start * ns :], stop - start, ns, taps.size) @ taps
    return soft, slice_symbols(soft, scheme)


def dfe_train(
    received: np.ndarray, training: np.ndarray, nf: int, nb: int,
    ridge: float, ns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint Wiener solve for nf feedforward and nb feedback taps; returns
    (w_ff, w_fb)."""
    ff = _training_regressors(received, training.size, ns, nf)
    # feedback inputs: the nb symbols before each, newest first; 0 before training
    padded = np.concatenate([np.zeros(nb, dtype=complex), training])
    fb = _kernels.frames(padded, training.size, 1, nb)[:, ::-1]
    w = _solve(*_correlations(np.concatenate([ff, fb], axis=1), training), ridge)
    return w[:nf], w[nf:]


def dfe_detect(
    received: np.ndarray, w_ff: np.ndarray, w_fb: np.ndarray,
    history: np.ndarray, scheme: ModulationScheme, num_symbols: int, ns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(soft outputs, hard decisions); ``history`` holds the last w_fb.size
    decisions before the first symbol, newest first."""
    return _kernels.dfe_detect_run(received, w_ff, w_fb, scheme.constellation,
                                   history, ns, num_symbols)


def dispersion_constant(scheme: ModulationScheme) -> float:
    """Godard dispersion constant R2 = E|a|^4 / E|a|^2."""
    mags = np.abs(scheme.constellation)
    return float(np.mean(mags**4) / np.mean(mags**2))


def _aligned(y: np.ndarray, truth: np.ndarray, delay: int):
    """Pair y[n] with truth[n + delay]; delay may be negative."""
    if delay >= 0:
        ref = truth[delay:]
        est = y
    else:
        ref = truth
        est = y[-delay:]
    n = min(ref.size, est.size)
    return est[:n], ref[:n]


def _derotate_and_delay(y: np.ndarray, truth: np.ndarray, nf: int):
    """Resolve the quadrant ambiguity and pick the best equalizer delay: the
    (delay, rotation) pair, delay in -nf..nf and rotation 1, 1j, -1, -1j,
    with the least settled-half MSE, the first in that order on a tie.

    One pass per delay screens its four rotations: with E the energy
    sum |ref|**2 + sum |est|**2 and s = sum ref conj(est), the n MSE terms
    sum to E - 2 Re(conj(rot) s).  In units of u e, u = 2**-53 and e = E/n,
    the screened mean errs by at most 4n + 7 (each dot sums 2n products in
    some order, of magnitudes summing to E, or E/2 for s) and the MSE by at
    most 2n + 14 (n terms of a few roundings each, summing to at most 2E).
    The bound 16 (n + 4) u (e + tiny) is more than twice both, so a pair
    whose screened mean minus bound is above another's plus bound has the
    larger MSE; the rest are scored as before, in order.  y is finite or
    NaN (the kernels stop past DIVERGENCE_LIMIT) and truth finite, so a NaN
    MSE has a NaN screened mean, which keeps every pair."""
    halves, screened, bounds = [], [], []
    for delay in range(-nf, nf + 1):
        est, ref = _aligned(y, truth, delay)
        if est.size == 0:
            continue
        # judge the settled half
        est, ref = est[est.size // 2 :], ref[ref.size // 2 :]
        energy = np.vdot(ref, ref).real + np.vdot(est, est).real
        s = np.vdot(est, ref)
        halves.append((delay, est, ref))
        sums = energy - 2 * np.array([s.real, s.imag, -s.real, -s.imag])
        screened.append(sums / est.size)
        bounds.append(16 * (est.size + 4) * 2.0**-53 * (energy / est.size + _TINY))
    screened, bounds = np.array(screened), np.array(bounds)[:, None]
    # a NaN compares false, so it is kept, and fmin skips it
    kept = ~(screened - bounds > np.fmin.reduce(screened + bounds, axis=None))
    best = None
    for (delay, est, ref), keep in zip(halves, kept):
        for rot, k in zip((1, 1j, -1, -1j), keep):
            score = np.inf  # screened out: above the least MSE
            if k:
                score = float(np.mean(np.abs(ref - rot * est) ** 2))
            if best is None or score < best[0]:
                best = (score, delay, rot)
    _, delay, rot = best
    est, ref = _aligned(y, truth, delay)
    return np.abs(ref - rot * est) ** 2, delay


def agc(received: np.ndarray) -> np.ndarray:
    """Scale a signal to unit average power (automatic gain control)."""
    power = float(np.mean(np.abs(received) ** 2))
    if power <= 0:
        if received.any():
            raise ValueError("cannot normalize a signal whose power |x|**2 "
                             "underflows to zero")
        raise ValueError("cannot normalize an all-zero signal")
    return received / np.sqrt(power)


def run_blind(
    received: np.ndarray, nf: int, mu: float, r2: float, variant: str,
    iterations: int, truth: np.ndarray, rng: np.random.Generator, stride: int,
) -> tuple[np.ndarray, int]:
    """Adapt nf centre-spike taps (nf odd), step size mu >= 0, dispersion
    constant r2, on the stream scaled to unit power (``agc``); score each
    output against the transmitted symbols ``truth``.  Returns the
    per-iteration squared error and the delay that aligns the output with
    them: the delay in -nf..nf and the rotation in 1, 1j, -1, -1j that
    minimize the MSE over the settled (second) half of the aligned output,
    the first in delay-then-rotation order winning a tie.  The "DSE_CMA"
    variant dithers at amplitude r2, drawn from ``rng``; "CMA" draws none.
    The schema checks ``variant``; the runner sizes ``received`` for ``iterations``."""
    received = agc(received)
    taps = np.zeros(nf, dtype=complex)
    taps[nf // 2] = 1.0
    if variant == "CMA":
        y, _, bad = _kernels.cma_run(received, taps, mu, r2, iterations, stride)
    else:
        y, _, bad = _kernels.dse_cma_run(
            received, taps, mu, r2,
            rng.uniform(0.0, 1.0, size=2 * iterations), iterations, stride,
        )
    if bad >= 0:
        raise DivergenceError(f"blind equalizer diverged at step {bad}")
    return _derotate_and_delay(y, truth, nf)
