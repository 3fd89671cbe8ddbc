"""Sequential inner loops for the adaptive receivers.

CMA/DSE-CMA adaptation and decision-feedback detection are step-by-step
recursions, JIT-compiled with numba when it imports.  Without numba, or with
``BANSIM_NO_NUMBA=1``, the numpy fallback runs: it vectorizes the work
outside the recursion (feedforward filtering, regressor windows, dither)
and is bit-identical to the per-step reference (``equalize.cma_step`` and a
scalar per-symbol DFE loop).  ``benchmarks/bench_kernels.py`` times the
active path against those references or, with numba, against the fallback.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

USE_NUMBA = os.environ.get("BANSIM_NO_NUMBA", "0") != "1"

DIVERGENCE_LIMIT = 1.0e3


def frames(received, count, stride, width):
    """Read-only view whose row n is ``received[n*stride : n*stride + width]``.

    Samples past the end of ``received`` read as zero; the buffer is copied
    and padded only when a row reaches past it.  ``count`` may be 0 and
    ``received`` may be shorter than one row.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    need = (count - 1) * stride + width if count > 0 else width
    if received.size < need:
        received = np.concatenate(
            [received, np.zeros(need - received.size, dtype=received.dtype)])
    return sliding_window_view(received, width)[::stride][:count]


def _sign(x):
    """np.sign on a Python float: 0.0 for either zero, NaN stays NaN."""
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0 if x == 0.0 else x


def _blind_run_py(received, taps, mu, r2, max_steps, stride, dse=None):
    """CMA, or DSE-CMA when ``dse`` is ``(alpha_d, dither_u)``.

    Keeps np.vdot and the numpy tap update ``taps + gain * reg`` of the
    per-step reference (``equalize.cma_step``): those two set the rounding.
    The scalar error arithmetic runs on Python complex/float, which rounds
    like numpy's scalars; the gain goes through a 0-d array, which numpy
    multiplies without per-call scalar conversion.  On divergence y holds
    the steps run so far.
    """
    mu, r2 = float(mu), float(r2)
    if dse is not None:
        alpha_d = float(dse[0])
        u = dse[1][:2 * max_steps]
        dither = (alpha_d * np.sin(2.0 * np.pi * u)).tolist()
    nf = taps.size
    # regressors newest sample first; only steps whose window fits get one,
    # so a run that diverges before the stream runs out still returns
    fit = max(0, (received.size - nf) // stride + 1)
    regressors = frames(received, min(max_steps, fit), stride, nf)[:, ::-1]
    gain = np.zeros((), dtype=np.complex128)
    y = []
    for n, reg in enumerate(regressors):
        yn = np.vdot(taps, reg)  # f^H r
        y.append(yn)
        size = float(abs(yn))  # numpy's |y| is inf where abs(complex) raises
        if size > DIVERGENCE_LIMIT:
            return np.array(y, dtype=np.complex128), taps, n
        psi = complex(yn) * (r2 - size ** 2)
        if dse is not None:
            psi = alpha_d * (_sign(psi.real + dither[2 * n])
                             + 1j * _sign(psi.imag + dither[2 * n + 1]))
        gain[()] = mu * psi.conjugate()
        taps = taps + gain * reg
    if len(y) < max_steps:
        raise ValueError("received stream too short for the requested steps")
    return np.array(y, dtype=np.complex128), taps, -1


def _cma_run_py(received, taps, mu, r2, max_steps, stride):
    return _blind_run_py(received, taps, mu, r2, max_steps, stride)


def _dse_cma_run_py(received, taps, mu, r2, alpha_d, dither_u, max_steps,
                    stride):
    return _blind_run_py(received, taps, mu, r2, max_steps, stride,
                         (alpha_d, dither_u))


def _dfe_detect_py(received, w_ff, w_fb, constellation, history, stride,
                   n_sym):
    # Feedforward for every symbol at once.  The feedforward window advances
    # by stride samples per symbol and may span several symbol periods;
    # missing tail samples count as zero.
    window = frames(received, n_sym, stride, w_ff.size)
    re = np.zeros(n_sym)
    im = np.zeros(n_sym)
    # Real arithmetic, one tap at a time, as the scalar loop rounds it: a
    # complex array multiply fuses multiply-adds (FMA) and rounds differently.
    for i, w in enumerate(w_ff.tolist()):
        xr = window[:, i].real
        xi = window[:, i].imag
        re += w.real * xr - w.imag * xi
        im += w.real * xi + w.imag * xr
    ff = np.empty(n_sym, dtype=np.complex128)
    ff.real = re
    ff.imag = im
    # feedback, slicing (lowest label wins a tie) and history shift
    fb = w_fb.tolist()
    points = constellation.tolist()
    hist = deque(history.tolist(), maxlen=len(fb))  # newest decision first
    soft = ff.tolist()
    labels = []
    for k, xk in enumerate(soft):
        for w, h in zip(fb, hist):
            xk += w * h
        soft[k] = xk
        dist = [abs(xk - c) for c in points]
        best = dist.index(min(dist))
        labels.append(best)
        hist.appendleft(points[best])
    decisions = constellation[np.array(labels, dtype=np.intp)]
    return (np.array(soft, dtype=np.complex128), decisions,
            np.array(hist, dtype=np.complex128))


if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False

if USE_NUMBA:

    @njit(cache=True)
    def _cma_run_jit(received, taps, mu, r2, max_steps, stride):
        nf = taps.size
        y = np.empty(max_steps, dtype=np.complex128)
        f = taps.copy()
        for n in range(max_steps):
            base = n * stride
            yn = 0.0 + 0.0j
            for i in range(nf):
                yn += np.conj(f[i]) * received[base + nf - 1 - i]
            y[n] = yn
            if abs(yn) > DIVERGENCE_LIMIT:
                return y[:n + 1], f, n
            err = yn * (r2 - abs(yn) ** 2)
            ce = np.conj(err)
            for i in range(nf):
                f[i] += mu * ce * received[base + nf - 1 - i]
        return y, f, -1

    @njit(cache=True)
    def _dse_cma_run_jit(received, taps, mu, r2, alpha_d, dither_u, max_steps,
                         stride):
        nf = taps.size
        y = np.empty(max_steps, dtype=np.complex128)
        f = taps.copy()
        for n in range(max_steps):
            base = n * stride
            yn = 0.0 + 0.0j
            for i in range(nf):
                yn += np.conj(f[i]) * received[base + nf - 1 - i]
            y[n] = yn
            if abs(yn) > DIVERGENCE_LIMIT:
                return y[:n + 1], f, n
            err = yn * (r2 - abs(yn) ** 2)
            d_r = alpha_d * np.sin(2.0 * np.pi * dither_u[2 * n])
            d_i = alpha_d * np.sin(2.0 * np.pi * dither_u[2 * n + 1])
            psi = alpha_d * (np.sign(err.real + d_r) + 1j * np.sign(err.imag + d_i))
            cp = np.conj(psi)
            for i in range(nf):
                f[i] += mu * cp * received[base + nf - 1 - i]
        return y, f, -1

    @njit(cache=True)
    def _dfe_detect_jit(received, w_ff, w_fb, constellation, history, stride,
                        n_sym):
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

    cma_run = _cma_run_jit
    dse_cma_run = _dse_cma_run_jit
    dfe_detect_run = _dfe_detect_jit
else:
    cma_run = _cma_run_py
    dse_cma_run = _dse_cma_run_py
    dfe_detect_run = _dfe_detect_py
