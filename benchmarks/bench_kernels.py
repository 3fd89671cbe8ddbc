"""Time the receiver kernels against their per-step references.

Run with ``python benchmarks/bench_kernels.py``.  Each kernel in
``bansim._kernels`` runs on the same inputs as its per-step reference
(``equalize.cma_step`` per step, a scalar per-symbol DFE loop; see
``tests/kernel_reference.py``), and the outputs must be bit-identical.
"""

import os
import sys
import time

import numpy as np

from bansim import _kernels

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))
from kernel_reference import (  # noqa: E402
    cma_reference, dfe_reference, dse_cma_reference)


def timeit(fn, *args, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def compare(reference, kernel, args):
    t_ref, out_ref = timeit(reference, *args)
    t_kernel, out_kernel = timeit(kernel, *args)
    for a, b in zip(out_ref, out_kernel):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return t_ref, t_kernel


def bench_cma(iterations=50_000, nf=13, stride=3):
    rng = np.random.default_rng(0)
    n = iterations * stride + nf
    received = rng.normal(size=n) + 1j * rng.normal(size=n)
    taps = np.zeros(nf, dtype=np.complex128)
    taps[nf // 2] = 1.0
    args = (received, taps, 3e-4, 1.32, iterations, stride)
    return ("cma_run",) + compare(cma_reference, _kernels.cma_run, args)


def bench_dse_cma(iterations=50_000, nf=13, stride=3):
    rng = np.random.default_rng(1)
    n = iterations * stride + nf
    received = rng.normal(size=n) + 1j * rng.normal(size=n)
    taps = np.zeros(nf, dtype=np.complex128)
    taps[nf // 2] = 1.0
    dither = rng.uniform(size=2 * iterations)
    args = (received, taps, 3e-4, 1.32, 1.32, dither, iterations, stride)
    return ("dse_cma_run",) + compare(dse_cma_reference, _kernels.dse_cma_run,
                                      args)


def bench_dfe(n_sym=200_000, nf=6, nb=3, ns=2):
    rng = np.random.default_rng(2)
    n = n_sym * ns + nf
    received = rng.normal(size=n) + 1j * rng.normal(size=n)
    w_ff = rng.normal(size=nf) + 0j
    w_fb = rng.normal(size=nb) + 0j
    constellation = np.array([1.0 + 0j, -1.0 + 0j])
    history = np.zeros(nb, dtype=np.complex128)
    args = (received, w_ff, w_fb, constellation, history, ns, n_sym)
    return ("dfe_detect_run",) + compare(dfe_reference, _kernels.dfe_detect_run,
                                         args)


def main():
    print(f"{'kernel':<16}{'reference (s)':>15}{'kernel (s)':>12}"
          f"{'speedup':>9}")
    for bench in (bench_cma, bench_dse_cma, bench_dfe):
        name, t_ref, t_kernel = bench()
        print(f"{name:<16}{t_ref:>15.4f}{t_kernel:>12.4f}"
              f"{t_ref / t_kernel:>8.1f}x")
    print("outputs bit-identical to the per-step references")


if __name__ == "__main__":
    main()
