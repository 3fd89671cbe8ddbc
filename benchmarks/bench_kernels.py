"""Time the active receiver kernels against a baseline on identical inputs.

Run with ``python benchmarks/bench_kernels.py``.  It prints which kernel
path is active and why.  With numba the baseline is the numpy fallback;
without it the baseline is the per-step reference (``equalize.cma_step``
per step, a scalar per-symbol DFE loop; see ``tests/kernel_reference.py``).
Outputs must be bit-identical to the baseline's.
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


def kernel_path():
    """The active kernel path and the reason it was chosen."""
    if _kernels.USE_NUMBA:
        import numba
        return "numba", f"numba {numba.__version__} imported"
    if os.environ.get("BANSIM_NO_NUMBA", "0") == "1":
        return "numpy fallback", "BANSIM_NO_NUMBA=1 is set"
    try:
        import numba  # noqa: F401
    except ImportError as exc:
        return "numpy fallback", f"numba ImportError: {exc}"
    return "numpy fallback", "numba ImportError"


def timeit(fn, *args, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def compare(baseline, active, args):
    if _kernels.USE_NUMBA:
        active(*args)  # warm the JIT cache before timing
    t_base, out_base = timeit(baseline, *args)
    t_active, out_active = timeit(active, *args)
    for a, b in zip(out_base, out_active):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return t_base, t_active


def bench_cma(iterations=50_000, nf=13, stride=3):
    rng = np.random.default_rng(0)
    n = iterations * stride + nf
    received = rng.normal(size=n) + 1j * rng.normal(size=n)
    taps = np.zeros(nf, dtype=np.complex128)
    taps[nf // 2] = 1.0
    args = (received, taps, 3e-4, 1.32, iterations, stride)
    baseline = _kernels._cma_run_py if _kernels.USE_NUMBA else cma_reference
    return ("cma_run",) + compare(baseline, _kernels.cma_run, args)


def bench_dse_cma(iterations=50_000, nf=13, stride=3):
    rng = np.random.default_rng(1)
    n = iterations * stride + nf
    received = rng.normal(size=n) + 1j * rng.normal(size=n)
    taps = np.zeros(nf, dtype=np.complex128)
    taps[nf // 2] = 1.0
    dither = rng.uniform(size=2 * iterations)
    args = (received, taps, 3e-4, 1.32, 1.32, dither, iterations, stride)
    baseline = (_kernels._dse_cma_run_py if _kernels.USE_NUMBA
                else dse_cma_reference)
    return ("dse_cma_run",) + compare(baseline, _kernels.dse_cma_run, args)


def bench_dfe(n_sym=200_000, nf=6, nb=3, ns=2):
    rng = np.random.default_rng(2)
    n = n_sym * ns + nf
    received = rng.normal(size=n) + 1j * rng.normal(size=n)
    w_ff = rng.normal(size=nf) + 0j
    w_fb = rng.normal(size=nb) + 0j
    constellation = np.array([1.0 + 0j, -1.0 + 0j])
    history = np.zeros(nb, dtype=np.complex128)
    args = (received, w_ff, w_fb, constellation, history, ns, n_sym)
    baseline = _kernels._dfe_detect_py if _kernels.USE_NUMBA else dfe_reference
    return ("dfe_detect_run",) + compare(baseline, _kernels.dfe_detect_run,
                                         args)


def main():
    path, reason = kernel_path()
    baseline = "numpy fallback" if _kernels.USE_NUMBA else "per-step reference"
    print(f"active kernel path: {path} ({reason})")
    print(f"{'kernel':<16}{'baseline (s)':>14}{'active (s)':>12}"
          f"{'speedup':>9}")
    for bench in (bench_cma, bench_dse_cma, bench_dfe):
        name, t_base, t_active = bench()
        print(f"{name:<16}{t_base:>14.4f}{t_active:>12.4f}"
              f"{t_base / t_active:>8.1f}x")
    print(f"baseline: {baseline}; outputs bit-identical")


if __name__ == "__main__":
    main()
