"""Sequential inner loops for the adaptive receivers.

CMA/DSE-CMA adaptation and decision-feedback detection are step-by-step
recursions.  They run on numpy, vectorized outside the recursion
(feedforward filtering, regressor windows, dither), and are bit-identical
to the per-step reference (``equalize.cma_step`` and a scalar per-symbol
DFE loop).  ``benchmarks/bench_kernels.py`` times them against those
references.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# One numpy implementation and no numba JIT path; tools that report which
# kernel path ran read this flag.
USE_NUMBA = False

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


def _blind_run(received, taps, mu, r2, max_steps, stride, dse=None):
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


def cma_run(received, taps, mu, r2, max_steps, stride):
    return _blind_run(received, taps, mu, r2, max_steps, stride)


def dse_cma_run(received, taps, mu, r2, alpha_d, dither_u, max_steps, stride):
    return _blind_run(received, taps, mu, r2, max_steps, stride,
                      (alpha_d, dither_u))


def dfe_detect_run(received, w_ff, w_fb, constellation, history, stride,
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
