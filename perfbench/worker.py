"""One workload as a closed loop in one process.

Run from the root of a bansim checkout, by ``run.py``:

    python3 perfbench/worker.py MANIFEST --seconds S --trace 0|1
    python3 perfbench/worker.py MANIFEST --setup-probe

Each pass runs every operation of the manifest the way the CLI does:
read the config file, ``parse_config``, ``run_experiment``, then
``ResultTable.to_csv`` / ``emit_svg`` into files under the output directory.
A warm-up pass fills caches and records the reference output bytes; then
passes repeat until ``S`` seconds have been measured.  With ``--trace 1``
traced and untraced passes alternate.  The result is one JSON line on stdout.

``--setup-probe`` imports bansim, parses every config and topology file of
the manifest, prints ``ready`` and exits; ``run.py`` times it from launch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

sys.path.insert(0, os.path.abspath("src"))

import numpy  # noqa: E402
from bansim import _kernels, zigbee  # noqa: E402
from bansim.harness.config import parse_config  # noqa: E402
from bansim.harness.experiments import run_experiment  # noqa: E402
from bansim.harness.svg import emit_svg  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import check_op  # noqa: E402

MIN_TIMED_PASSES = 4

_REF = numpy.random.default_rng(0)
_REF_STREAM = _REF.normal(size=9013) + 1j * _REF.normal(size=9013)
_REF_SYMBOLS = _REF.normal(size=2000) + 1j * _REF.normal(size=2000)
_REF_POINTS = numpy.exp(1j * numpy.arange(16))


def reference_loop() -> float:
    """Seconds taken by a fixed mix of work that never calls bansim.

    Its three parts take roughly equal time: a pure-Python dict and set loop,
    a Python loop over small numpy operations, and numpy work on arrays of
    32k elements (small, so that it leaves the peak RSS to the workload).
    ``run.py`` divides each pass's time by the reference time taken just
    before it, which cancels most of the machine's speed drift.
    """
    start = time.perf_counter()
    table, seen = {}, set()
    for i in range(35_000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        seen.add(k)
        seen.discard((k * 3) % 1009)
    taps = numpy.zeros(13, dtype=complex)
    taps[6] = 1.0
    for n in range(3_000):
        reg = _REF_STREAM[3 * n:3 * n + 13][::-1]
        y = numpy.vdot(taps, reg)
        taps = taps + 1e-4 * numpy.conj(y * (1.3 - abs(y) ** 2)) * reg
    rng = numpy.random.default_rng(1)
    for _ in range(40):
        noise = rng.normal(size=(_REF_SYMBOLS.size, 2))
        noisy = _REF_SYMBOLS + noise[:, 0] + 1j * noise[:, 1]
        numpy.abs(noisy[:, None] - _REF_POINTS[None, :]).argmin(axis=1)
    return time.perf_counter() - start


def setup_probe(ops: list[dict]) -> None:
    for op in ops:
        with open(op["config"]) as fh:
            cfg = parse_config(fh.read(), op["experiment"])
        topology = cfg.section(op["experiment"]).get("topology")
        if topology is not None:
            with open(str(topology)) as fh:
                zigbee.parse_topology(fh.read())
    print("ready", flush=True)


def environment() -> dict:
    """The kernel path that ran and why, and the interpreter and numpy."""
    if _kernels.USE_NUMBA:
        import numba
        path, reason = "numba", f"numba {numba.__version__} imported"
    elif os.environ.get("BANSIM_NO_NUMBA", "0") == "1":
        path, reason = "numpy fallback", "BANSIM_NO_NUMBA=1 is set"
    else:
        path, reason = "numpy fallback", "numba ImportError"
        try:
            import numba  # noqa: F401
        except ImportError as exc:
            reason = f"numba ImportError: {exc}"
    return {"kernel_path": path, "kernel_reason": reason,
            "python": platform.python_version(), "numpy": numpy.__version__}


class Loop:
    def __init__(self, ops: list[dict], out_dir: str, tracer: Tracer):
        self.ops = ops
        self.out_dir = out_dir
        self.tracer = tracer
        self.digests: dict[str, str] = {}  # output file -> sha256 in the first pass
        self.attempted = 0
        self.failures: list[str] = []

    def _span(self, traced: bool, name: str):
        return self.tracer.span(name, "harness") if traced else nullcontext()

    def _op(self, op: dict, traced: bool):
        """One CLI-equivalent call; returns (outputs, {file: bytes})."""
        out = os.path.join(self.out_dir, op["name"])
        with self._span(traced, "harness.parse"):
            with open(op["config"]) as fh:
                cfg = parse_config(fh.read(), op["experiment"])
            cfg.output_dir = out
            os.makedirs(out, exist_ok=True)
        with self._span(traced, "harness.run"):
            outputs = run_experiment(cfg)
        files = {}
        with self._span(traced, "harness.emit"):
            for stem, table, plot in outputs:
                files[f"{stem}.csv"] = table.to_csv().encode()
                if plot is not None:
                    files[f"{stem}.svg"] = emit_svg(table, plot).encode()
            for fname, data in files.items():
                with open(os.path.join(out, fname), "wb") as fh:
                    fh.write(data)
        return outputs, files

    def run_pass(self, index: int, traced: bool) -> dict:
        ref_s = reference_loop()
        if traced:
            self.tracer.install()
        op_times, emit_bytes = [], 0
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                outputs, files = self._op(op, traced)
            except Exception as exc:  # a raising operation counts as failed
                op_times.append(time.perf_counter() - t0)
                self.failures.append(f"pass {index} {op['name']}: raised "
                                     f"{type(exc).__name__}: {exc}")
                continue
            op_times.append(time.perf_counter() - t0)
            try:
                problems = check_op(op, outputs)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"outputs lack the expected tables: {exc!r}"]
            for fname, data in files.items():
                key = f"{op['name']}/{fname}"
                emit_bytes += len(data)
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    problems.append(f"{key} bytes differ from the first pass")
            if problems:
                self.failures.append(f"pass {index} {op['name']}: "
                                     + "; ".join(problems))
        # checks and hashing above stay outside the pass time
        record = {"traced": traced, "wall_s": sum(op_times), "ref_s": ref_s,
                  "op_s": op_times, "emit_bytes": emit_bytes}
        if traced:
            self.tracer.uninstall()
            record["layers"] = self.tracer.fold()
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    if args.setup_probe:
        setup_probe(manifest["ops"])
        return 0

    loop = Loop(manifest["ops"], manifest["out_dir"], Tracer())
    warmup = loop.run_pass(0, traced=False)
    timed = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(timed) < MIN_TIMED_PASSES):
        timed.append(loop.run_pass(len(timed) + 1,
                                   traced=bool(args.trace) and len(timed) % 2 == 0))
    result = {
        "warmup": warmup,
        "passes": timed,
        "attempted": loop.attempted,
        "failures": loop.failures,
        "outputs": dict(sorted(loop.digests.items())),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
