"""Per-step references for the receiver kernels in ``bansim._kernels``.

Each takes the arguments of its kernel and returns what the kernel returns:
``cma_reference`` and ``dse_cma_reference`` run one ``equalize.cma_step``
per step, ``dfe_reference`` is the scalar per-symbol decision-feedback loop.
The numpy kernels must reproduce them bit for bit; ``test_kernels.py``
checks that on random, divergent and edge-case inputs.
"""

import numpy as np

from bansim import _kernels, equalize


def _blind_reference(received, eq, max_steps, stride, dither_u):
    """On divergence y stops at the diverging step, with the taps that
    produced it."""
    nf = eq.taps.size
    y = []
    for n in range(max_steps):
        reg = received[n * stride : n * stride + nf][::-1]
        u = None if dither_u is None else dither_u[2 * n : 2 * n + 2]
        yn, nxt = equalize.cma_step(eq, reg, u)
        y.append(yn)
        if abs(yn) > _kernels.DIVERGENCE_LIMIT:
            return np.array(y, dtype=np.complex128), eq.taps, n
        eq = nxt
    return np.array(y, dtype=np.complex128), eq.taps, -1


def cma_reference(received, taps, mu, r2, max_steps, stride):
    eq = equalize.CmaEqualizer(taps, mu, r2)
    return _blind_reference(received, eq, max_steps, stride, None)


def dse_cma_reference(received, taps, mu, r2, alpha_d, dither_u, max_steps,
                      stride):
    eq = equalize.CmaEqualizer(taps, mu, r2, "DSE_CMA", alpha_d)
    return _blind_reference(received, eq, max_steps, stride, dither_u)


def dfe_reference(received, w_ff, w_fb, constellation, history, stride, n_sym):
    """(soft, decisions, history), as ``dfe_detect_run`` returns."""
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
        best = 0
        best_d = abs(xk - constellation[0])
        for m in range(1, constellation.size):
            d = abs(xk - constellation[m])
            if d < best_d:
                best_d = d
                best = m
        decisions[k] = constellation[best]
        if nb > 0:
            for b in range(nb - 1, 0, -1):
                hist[b] = hist[b - 1]
            hist[0] = decisions[k]
    return soft, decisions, hist
