"""Receivers: multiuser synthesis, linear MMSE detection, decision-feedback
equalization, and blind CMA / dithered signed-error CMA adaptation.

Conventions: equalizer outputs are plain inner products ``w @ r`` with the
tap vector stored so that no extra conjugation is needed at detection time
(the blind equalizers use ``f^H r`` internally and expose the same ``y``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .sigproc import ModulationScheme, _complex_normal, slice_symbols


class DivergenceError(RuntimeError):
    """Blind adaptation left the stable region."""

    def __init__(self, step: int):
        super().__init__(f"blind equalizer diverged at step {step}")
        self.step = step


def synth_multiuser(streams: list[np.ndarray], templates: list[np.ndarray],
                    ns: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Composite of every user's symbols, one per ns samples, convolved with
    its template (channel * signature), plus complex white noise of
    per-dimension deviation sigma; user 0 is the desired user."""
    total = max((len(sym) - 1) * ns + len(tpl) for sym, tpl in zip(streams, templates))
    desired = np.zeros(total, dtype=complex)
    mui = np.zeros(total, dtype=complex)
    for mu_idx, (sym, tpl) in enumerate(zip(streams, templates)):
        up = np.zeros((len(sym) - 1) * ns + 1, dtype=complex)
        up[::ns] = sym
        contrib = np.convolve(up, tpl)
        target = desired if mu_idx == 0 else mui
        target[: contrib.size] += contrib
    # desired + mui first, then the noise: the order sets the rounding
    composite = desired + mui
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
    received: np.ndarray, training: np.ndarray, n_w: int, ns: int = 1
):
    return _correlations(_training_regressors(received, training.size, ns, n_w),
                         training)


def wiener_solve(gamma_rr: np.ndarray, gamma_ar: np.ndarray,
                 ridge: float = 0.0) -> np.ndarray:
    """Wiener taps w = gamma_ar @ inv(Gamma_rr), ridge-regularized."""
    return _solve(gamma_rr, gamma_ar, ridge)


def linear_mud_detect(
    received: np.ndarray, taps: np.ndarray, scheme: ModulationScheme,
    num_symbols: int, ns: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(soft outputs, hard decisions) of the tap vector on each symbol."""
    soft = _training_regressors(received, num_symbols, ns, taps.size) @ taps
    return soft, slice_symbols(soft, scheme)


def dfe_train(
    received: np.ndarray, training: np.ndarray, nf: int, nb: int,
    ridge: float = 0.0, ns: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint Wiener solve for nf feedforward and nb feedback taps; returns
    (w_ff, w_fb)."""
    ff = _training_regressors(received, training.size, ns, nf)
    # feedback inputs: previously decided symbols; training fills them in
    fb = np.zeros((training.size, nb), dtype=complex)
    for b in range(nb):
        fb[b + 1 :, b] = training[: training.size - b - 1]
    w = _solve(*_correlations(np.concatenate([ff, fb], axis=1), training), ridge)
    return w[:nf], w[nf:]


def dfe_detect(
    received: np.ndarray, w_ff: np.ndarray, w_fb: np.ndarray,
    history: np.ndarray, scheme: ModulationScheme, num_symbols: int, ns: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(soft outputs, hard decisions); ``history`` holds the last w_fb.size
    decisions before the first symbol, newest first."""
    return _kernels.dfe_detect_run(received, w_ff, w_fb, scheme.constellation,
                                   history, ns, num_symbols)


def dispersion_constant(scheme: ModulationScheme) -> float:
    """Godard dispersion constant R2 = E|a|^4 / E|a|^2."""
    mags = np.abs(scheme.constellation)
    return float(np.mean(mags**4) / np.mean(mags**2))


@dataclass
class CmaEqualizer:
    taps: np.ndarray
    step: float
    dispersion: float
    variant: str = "CMA"  # or "DSE_CMA", whose dither amplitude is dispersion

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step size must be non-negative")
        if self.taps.size % 2 == 0:
            raise ValueError("tap count nf must be odd (center-spike initialization)")
        if self.variant not in ("CMA", "DSE_CMA"):
            raise ValueError(f"unknown variant {self.variant!r}")

    @classmethod
    def center_spike(
        cls, nf: int, step: float, dispersion: float, variant: str = "CMA",
    ) -> "CmaEqualizer":
        taps = np.zeros(nf, dtype=complex)
        taps[nf // 2] = 1.0
        return cls(taps, step, dispersion, variant)


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
    """Resolve the quadrant ambiguity and pick the best equalizer delay."""
    best = None
    for delay in range(-nf, nf + 1):
        est, ref = _aligned(y, truth, delay)
        if est.size == 0:
            continue
        # judge the settled half
        est, ref = est[est.size // 2 :], ref[ref.size // 2 :]
        for rot in (1, 1j, -1, -1j):
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
    received: np.ndarray, eq: CmaEqualizer, iterations: int,
    truth: np.ndarray, rng: np.random.Generator, stride: int = 1,
) -> tuple[np.ndarray, int]:
    """Adapt ``eq`` on the stream scaled to unit power (``agc``) and score
    each output against the transmitted symbols ``truth``: returns the
    per-iteration squared error and the equalizer delay that aligns the
    output with the symbols.  DSE-CMA draws its dither from ``rng``."""
    received = agc(received)
    nf = eq.taps.size
    if eq.variant == "CMA":
        y, _, bad = _kernels.cma_run(
            received, eq.taps, eq.step, eq.dispersion, iterations, stride,
        )
    else:
        y, _, bad = _kernels.dse_cma_run(
            received, eq.taps, eq.step, eq.dispersion, eq.dispersion,
            rng.uniform(0.0, 1.0, size=2 * iterations), iterations, stride,
        )
    if bad >= 0:
        raise DivergenceError(bad)
    return _derotate_and_delay(y, truth, nf)
