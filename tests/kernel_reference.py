"""Per-step references for the receiver kernels in ``bansim._kernels``.

Each takes the arguments of its kernel and returns what the kernel returns:
``cma_reference`` and ``dse_cma_reference`` run one ``cma_step`` per step,
``dfe_reference`` is the scalar per-symbol decision-feedback loop, which
slices each symbol by ``sigproc_reference.exact_label``.  The numpy kernels
must reproduce them bit for bit; ``test_kernels.py`` checks that on random,
divergent and edge-case inputs.  ``derotate_and_delay_reference`` scores
every (delay, rotation) pair of a blind run's output, as
``equalize._derotate_and_delay`` must choose them; ``test_equalize.py``
checks that on near-ties and exact ties.

``dfe_detect_run`` does not step like ``dfe_reference``: it speculates every
decision (slices the feedforward outputs), verifies a block of guesses in
one sweep (every symbol up to the first wrong guess has an exact history),
and repairs from the first wrong guess with the scalar loop until nb
decisions in a row match their guesses.  Sweeps that fail early double the
next repair, which bounds the cost where nearly every guess is wrong.  Only
the outputs must match this loop; a property test draws schemes, rounding
grids, strides, feedback up to error-propagating size and small sweep
blocks, so the repair and the backoff run too.
"""

import numpy as np

from bansim import _kernels
from bansim.equalize import _aligned
from sigproc_reference import exact_label


def cma_step(taps, mu, r2, variant, regressor, dither_u=None):
    """One adaptation step of the blind equalizer ``equalize.run_blind``
    runs: taps at step size mu toward the dispersion constant r2, variant
    "CMA" or "DSE_CMA".  Returns (y, updated taps).  A DSE-CMA step dithers
    each rail uniformly on [-alpha, alpha], alpha = r2, by r2 * (2u - 1) from
    its uniform draw u, as Schniter and Johnson's dithered signed-error CMA
    does (IEEE Trans. Signal Processing 47(6), 1999)."""
    regressor = np.asarray(regressor, dtype=complex)
    if regressor.size != taps.size:
        raise ValueError("regressor length must equal tap count")
    y = np.vdot(taps, regressor)
    err = y * (r2 - abs(y) ** 2)
    if variant == "CMA":
        psi = err
    else:
        if dither_u is None:
            raise ValueError("DSE-CMA step needs two uniform dither draws")
        d_r = r2 * (2.0 * dither_u[0] - 1.0)
        d_i = r2 * (2.0 * dither_u[1] - 1.0)
        psi = r2 * (
            np.sign(err.real + d_r) + 1j * np.sign(err.imag + d_i)
        )
    return y, taps + mu * np.conj(psi) * regressor


def _blind_reference(received, taps, mu, r2, variant, max_steps, stride,
                     dither_u):
    """On divergence y stops at the diverging step, with the taps that
    produced it."""
    nf = taps.size
    y = []
    for n in range(max_steps):
        reg = received[n * stride : n * stride + nf][::-1]
        u = None if dither_u is None else dither_u[2 * n : 2 * n + 2]
        yn, nxt = cma_step(taps, mu, r2, variant, reg, u)
        y.append(yn)
        if abs(yn) > _kernels.DIVERGENCE_LIMIT:
            return np.array(y, dtype=np.complex128), taps, n
        taps = nxt
    return np.array(y, dtype=np.complex128), taps, -1


def cma_reference(received, taps, mu, r2, max_steps, stride):
    return _blind_reference(received, taps, mu, r2, "CMA", max_steps, stride,
                            None)


def dse_cma_reference(received, taps, mu, r2, dither_u, max_steps, stride):
    return _blind_reference(received, taps, mu, r2, "DSE_CMA", max_steps,
                            stride, dither_u)


def dfe_reference(received, w_ff, w_fb, constellation, history, stride, n_sym):
    """(soft, decisions), as ``dfe_detect_run`` returns."""
    nf = w_ff.size
    nb = w_fb.size
    decisions = np.empty(n_sym, dtype=np.complex128)
    soft = np.empty(n_sym, dtype=np.complex128)
    hist = history.copy()
    for k in range(n_sym):
        xk = 0.0 + 0.0j
        for i in range(nf):
            idx = k * stride + i
            if idx < received.size:
                xk += w_ff[i] * received[idx]
        for b in range(nb):
            xk += w_fb[b] * hist[b]
        soft[k] = xk
        decisions[k] = constellation[exact_label(xk, constellation)]
        if nb > 0:
            for b in range(nb - 1, 0, -1):
                hist[b] = hist[b - 1]
            hist[0] = decisions[k]
    return soft, decisions


def derotate_and_delay_reference(y, truth, nf):
    """(trace, delay) as ``equalize._derotate_and_delay`` returns them: the
    settled-half MSE of each pair, delay -nf..nf then rotation 1, 1j, -1,
    -1j, and the first strictly least."""
    best = None
    for delay in range(-nf, nf + 1):
        est, ref = _aligned(y, truth, delay)
        if est.size == 0:
            continue
        est, ref = est[est.size // 2 :], ref[ref.size // 2 :]
        for rot in (1, 1j, -1, -1j):
            score = float(np.mean(np.abs(ref - rot * est) ** 2))
            if best is None or score < best[0]:
                best = (score, delay, rot)
    _, delay, rot = best
    est, ref = _aligned(y, truth, delay)
    return np.abs(ref - rot * est) ** 2, delay
