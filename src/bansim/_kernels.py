"""Sequential inner loops for the adaptive receivers.

CMA/DSE-CMA adaptation and decision-feedback detection are step-by-step
recursions.  They run on numpy, vectorized outside the recursion
(feedforward filtering, regressor windows, dither), and are bit-identical
to the per-step references in ``tests/kernel_reference.py`` (``cma_step``
and a scalar per-symbol DFE loop); ``tests/test_kernels.py`` asserts that
bit-identity.  ``perfbench/run.py --trace 1`` reports their
cost per step (``kernels.*.ns_per_iter``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sigproc import rail_slicer

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
    per-step reference (``cma_step`` in ``tests/kernel_reference.py``): those
    two set the rounding.
    The update runs in place on a copy of the caller's ``taps``, as
    ``np.multiply(gain, reg, step)`` then ``np.add(taps, step, taps)``,
    which round as the allocating expression does; ``out`` goes by position
    because the keyword costs more per call than the allocation it saves.
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
    taps = taps.astype(np.complex128)  # a copy: the update below is in place
    step = np.empty_like(taps)
    multiply, add = np.multiply, np.add
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
        multiply(gain, reg, step)
        add(taps, step, taps)
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
    # feedback, slicing as sigproc slices (per rail, see RailSlicer) and
    # history shift
    slicer = rail_slicer(constellation)
    (re_lo, re_hi), (im_lo, im_hi), cols = slicer.re, slicer.im, slicer.cols
    cell_points = constellation[slicer.cell_labels].tolist()
    fb = w_fb.tolist()
    hist = deque(history.tolist(), maxlen=len(fb))  # newest decision first
    soft = ff.tolist()
    cells = []
    for k, xk in enumerate(soft):
        for w, h in zip(fb, hist):
            xk += w * h
        soft[k] = xk
        xr, xi = xk.real, xk.imag
        cell = ((bisect_left(re_lo, xr) + bisect_right(re_hi, xr)) * cols
                + bisect_left(im_lo, xi) + bisect_right(im_hi, xi))
        cells.append(cell)
        hist.appendleft(cell_points[cell])
    soft = np.array(soft, dtype=np.complex128)
    if not np.isfinite(soft).all():
        raise ValueError("cannot slice a non-finite DFE output")
    decisions = constellation[slicer.cell_labels[np.array(cells, dtype=np.intp)]]
    return soft, decisions
