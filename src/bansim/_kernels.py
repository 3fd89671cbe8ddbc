"""Sequential inner loops for the adaptive receivers.

CMA/DSE-CMA adaptation and decision-feedback detection are step-by-step
recursions.  They run on numpy, vectorized outside the recursion
(feedforward filtering, regressor windows, dither), and are bit-identical
to the per-step references in ``tests/kernel_reference.py`` (``cma_step``
and a scalar per-symbol DFE loop); ``tests/test_kernels.py`` asserts that
bit-identity.  ``perfbench/run.py --trace 1`` reports their
cost per step (``kernels.*.ns_per_iter``).

The CMA loops step one sample at a time.  DFE detection, whose decisions
feed the next symbol's feedback, is done by look-ahead in numpy sweeps:

- speculate: the sliced feedforward outputs are the first guesses;
- verify: a sweep recomputes a block's soft outputs from the guessed
  history, rounded as the loop rounds them.  Each symbol up to and
  including the first whose cell differs from its guess has an exact
  history, so its output is exact; the sweep's cells after it are the new
  guesses.  The first sweep covers every symbol;
- repair: from there the scalar loop runs until the last nb decisions of
  a chunk equal their guesses; then the next sweep.

A sweep of SWEEP_BLOCK symbols costs about EARLY_FAIL scalar steps.  One
that verifies fewer doubles the least length of the next repair, whose
chunks double too, so where nearly every guess is wrong (feedback that
propagates errors) the kernel costs about what the loop costs.
"""

from __future__ import annotations

import inspect
from collections import deque
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sigproc import rail_slicer

# One numpy implementation and no numba JIT path; tools that report which
# kernel path ran read this flag.
USE_NUMBA = False

DIVERGENCE_LIMIT = 1.0e3

# DFE verify sweeps: each that finds a wrong guess halves the next, down to
# SWEEP_BLOCK symbols
SWEEP_BLOCK = 4096
EARLY_FAIL = 128


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


def _blind_run(received, taps, mu, r2, max_steps, stride, dither_u=None):
    """CMA, or DSE-CMA when ``dither_u`` holds the uniform draws, two per
    step.  DSE-CMA dithers each rail uniformly on [-alpha, alpha] with
    alpha = r2, as Schniter and Johnson's dithered signed-error CMA does
    (IEEE Trans. Signal Processing 47(6), 1999): for |psi| <= alpha the mean
    of alpha * sign(psi + dither) is psi, so the mean update is CMA's.

    Keeps np.vdot and the numpy tap update ``taps + gain * reg`` of the
    per-step reference (``cma_step`` in ``tests/kernel_reference.py``): those
    two set the rounding.  The regressors are reversed views (a negative
    stride), on which vdot runs numpy's own sequential loop, not BLAS: y is
    ``sum(conj(f_k) * r_k)`` added left to right on any host.  A contiguous
    copy would reach BLAS ``zdotc``, which sums in another order, and was
    no faster.  vdot is the C function behind ``np.vdot``
    (``inspect.unwrap``), without the ``__array_function__`` dispatcher,
    which plain ndarrays never need.  The update's rounding follows numpy's
    SIMD dispatch: its complex multiply fuses multiply-adds where numpy
    dispatches X86_V3 (AVX2 + FMA) or higher, the dispatch the pinned bytes
    hold under.  The update runs in place on a copy of the caller's
    ``taps``, as ``np.multiply(gain, reg, step)`` then ``np.add(taps, step,
    taps)``, which round as the allocating expression does; ``out`` goes by
    position because the keyword costs more per call than the allocation it
    saves.  The scalar error arithmetic runs on Python complex/float, which
    rounds like numpy's scalars.  y becomes a Python complex once a step,
    through ``complex.__pos__``, which copies a complex subclass such as
    ``np.complex128`` into a plain complex, bit for bit, at half the cost of
    a ``complex(y)`` call.  |y| is Python's ``abs``, which calls libm
    ``hypot`` as numpy does but raises ``OverflowError`` where numpy returns
    inf; only then is numpy's ``abs`` taken.  The gain goes through a 0-d
    array, which numpy multiplies without per-call scalar conversion.  On
    divergence y holds the steps run so far.  Samples past the end of
    ``received`` read as zero; a step that finds no dither draws left
    raises ``ValueError``, where the reference raises ``IndexError``.
    """
    mu, r2 = float(mu), float(r2)
    if dither_u is None:
        dither = repeat(None, max_steps)
    else:
        d = (r2 * (2.0 * dither_u[:2 * max_steps] - 1.0)).tolist()
        dither = zip(d[0::2], d[1::2])  # (real, imaginary) rail of each step
    # regressors newest sample first
    regressors = frames(received, max_steps, stride, taps.size)[:, ::-1]
    gain = np.zeros((), dtype=np.complex128)
    taps = taps.astype(np.complex128)  # a copy: the update below is in place
    step = np.empty_like(taps)
    multiply, add, vdot = np.multiply, np.add, inspect.unwrap(np.vdot)
    to_complex = complex.__pos__
    y = []
    for reg, pair in zip(regressors, dither, strict=True):
        yn = vdot(taps, reg)  # f^H r
        y.append(yn)
        c = to_complex(yn)
        try:
            size = abs(c)
        except OverflowError:
            size = float(abs(yn))
        if size > DIVERGENCE_LIMIT:
            return np.array(y, dtype=np.complex128), taps, len(y) - 1
        psi = c * (r2 - size ** 2)
        if pair is not None:
            psi = r2 * (_sign(psi.real + pair[0]) + 1j * _sign(psi.imag + pair[1]))
        gain[()] = mu * psi.conjugate()
        multiply(gain, reg, step)
        add(taps, step, taps)
    return np.array(y, dtype=np.complex128), taps, -1


def cma_run(received, taps, mu, r2, max_steps, stride):
    return _blind_run(received, taps, mu, r2, max_steps, stride)


def dse_cma_run(received, taps, mu, r2, dither_u, max_steps, stride):
    return _blind_run(received, taps, mu, r2, max_steps, stride, dither_u)


def _add_product(xr, xi, w, hr, hi, t, u):
    """``xr + 1j*xi += w * (hr + 1j*hi)`` in place, through scratch t and u,
    in real arithmetic as Python's complex product rounds it: a complex
    array multiply may fuse multiply-adds (FMA) and round differently."""
    np.multiply(hr, w.real, t)
    np.multiply(hi, w.imag, u)
    np.subtract(t, u, t)
    np.add(xr, t, xr)
    np.multiply(hi, w.real, t)
    np.multiply(hr, w.imag, u)
    np.add(t, u, t)
    np.add(xi, t, xi)


def _feedback(re, im, h_re, h_im, fb, start, stop):
    """Soft outputs of symbols start..stop-1: their feedforward outputs
    ``re + 1j*im`` plus ``w_b * h[nb + k - 1 - b]``, added for b = 0, 1,
    ..., nb - 1 as the scalar loop adds ``xk += w * h``."""
    xr = re[start:stop].copy()
    xi = im[start:stop].copy()
    # in place: a whole-array sweep's temporaries would each be fresh pages
    t, u = np.empty_like(xr), np.empty_like(xr)
    nb = len(fb)
    for b, w in enumerate(fb):
        h = slice(nb - 1 - b + start, nb - 1 - b + stop)
        _add_product(xr, xi, w, h_re[h], h_im[h], t, u)
    return xr, xi


def _repair(ff, guesses, fb, hist, slicer, cell_points, least):
    """The scalar DFE loop over the feedforward outputs ``ff``, from the
    decisions before its first symbol in ``hist`` (a deque, newest first).
    It decides a chunk of max(least, nb) symbols, then chunks twice as long
    as the one before, and stops after the first chunk whose last nb cells
    equal their ``guesses``, or at the end of ``ff``.  Returns the soft
    outputs and the cells it decided, as lists."""
    nb = len(fb)
    soft, cells = [], []
    stop, length = 0, max(least, nb)
    while stop < ff.size:
        start, stop = stop, min(ff.size, stop + length)
        for xk in ff[start:stop].tolist():
            for w, h in zip(fb, hist):
                xk += w * h
            soft.append(xk)
            cell = slicer.cell(xk)
            cells.append(cell)
            hist.appendleft(cell_points[cell])
        if cells[-nb:] == guesses[stop - nb:stop].tolist():
            break
        length *= 2
    return soft, cells


def dfe_detect_run(received, w_ff, w_fb, constellation, history, stride,
                   n_sym):
    # Feedforward for every symbol at once.  The feedforward window advances
    # by stride samples per symbol and may span several symbol periods;
    # missing tail samples count as zero.
    window = frames(received, n_sym, stride, w_ff.size)
    re = np.zeros(n_sym)
    im = np.zeros(n_sym)
    t, u = np.empty(n_sym), np.empty(n_sym)
    # one tap at a time, as the scalar loop adds them
    for i, w in enumerate(w_ff.tolist()):
        _add_product(re, im, w, window[:, i].real, window[:, i].imag, t, u)
    del t, u  # freed before the sweeps, which hold their own
    ff = np.empty(n_sym, dtype=np.complex128)
    ff.real = re
    ff.imag = im
    slicer = rail_slicer(constellation)
    points = constellation[slicer.cell_labels]  # the decision of each cell
    cell_points = points.tolist()
    fb = w_fb.tolist()
    nb = len(fb)
    # Speculate: slice the feedforward outputs.  cells holds each symbol's
    # guessed cell, exact from the front; h = h_re + 1j*h_im is the caller's
    # history, oldest first, then the decisions of those cells.
    cells = slicer.cells(re, im)
    p_re, p_im = points.real.copy(), points.imag.copy()
    h_re = np.concatenate([history.real[::-1], p_re[cells]])
    h_im = np.concatenate([history.imag[::-1], p_im[cells]])
    soft = np.empty(n_sym, dtype=np.complex128)
    done = 0  # the decisions before symbol `done` are exact
    block = n_sym
    least = 0  # the least length of the next repair
    # Python's complex arithmetic in the loop warns on nothing; nor may the
    # sweeps, whose guessed histories reach values the loop never computes
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_sym:
            # Verify
            start, stop = done, min(n_sym, done + block)
            xr, xi = _feedback(re, im, h_re, h_im, fb, start, stop)
            swept = slicer.cells(xr, xi)
            miss = np.flatnonzero(swept != cells[start:stop])
            done = start + int(miss[0]) + 1 if miss.size else stop
            soft.real[start:done] = xr[:done - start]
            soft.imag[start:done] = xi[:done - start]
            if not miss.size:
                least = 0
                continue
            cells[start:stop] = swept
            h_re[nb + start:nb + stop] = p_re[swept]
            h_im[nb + start:nb + stop] = p_im[swept]
            block = max(SWEEP_BLOCK, block // 2)
            # Bound the cost: a sweep that fails early doubles the next repair
            least = max(nb, 2 * least) if done - start < EARLY_FAIL else 0
            # Repair: the scalar loop, until it agrees with the guesses again
            hist = deque(map(complex, h_re[done:nb + done][::-1].tolist(),
                             h_im[done:nb + done][::-1].tolist()), maxlen=nb)
            walked_soft, walked = _repair(ff[done:], cells[done:], fb, hist,
                                          slicer, cell_points, least)
            stop = done + len(walked)
            soft[done:stop] = walked_soft
            cells[done:stop] = walked
            h_re[nb + done:nb + stop] = p_re[cells[done:stop]]
            h_im[nb + done:nb + stop] = p_im[cells[done:stop]]
            done = stop
    if not np.isfinite(soft).all():
        raise ValueError("cannot slice a non-finite DFE output")
    return soft, constellation[slicer.cell_labels[cells]]
