"""bansim benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a bansim checkout:

    python3 perfbench/run.py --workload receivers --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for sizes):

- ``receivers``: ``mud_compare`` (matched filter, linear MUD, DFE) and
  ``cma_convergence`` with QAM16/CMA and QAM8/DSE-CMA.  Time goes to the
  ``_kernels`` recursions, ``equalize`` regressor stacking and SVG emission.
- ``link_montecarlo``: ``ber_sweep`` QAM16 and QAM8, ``channel_stats``
  outdoor and indoor, ``doa_hist``.  Time goes to ``channels`` generators and
  ``sigproc`` demodulation and AWGN; it never calls ``_kernels``.
- ``network``: ``la_sim`` on shadowed nodes and ``broadcast_sim`` on a
  generated ZigBee tree.  Pure-Python loops; no PHY layer runs.

The run builds nothing but bytecode and writes the generated inputs under
``.bench_work/``.  It runs the workload as a closed loop in one worker
process (``worker.py``), which checks every output, and times
``SETUP_PROBES`` fresh interpreters that import bansim and parse those
inputs (``setup_s``), half before the worker and half after it.

With ``--trace 0`` the result holds the end-to-end metrics:

- ``wall_rel``: median over measured passes of the pass's wall time divided
  by the time of ``worker.reference_loop``, a fixed mix of work that never
  calls bansim, run just before the pass.  On a shared 2-vCPU Xeon VM the
  raw pass time drifted by up to 40% between runs with the host's load; the
  ratio cancels most of that drift.  The raw median pass time is printed too;
- ``setup_s``: median time for a fresh interpreter to import bansim and parse
  the workload's configs and topology;
- ``peak_rss_mb``: peak resident set size of the worker process;
- ``ok_ratio``: 1 - failed / attempted operations.  An operation fails if it
  raises, breaks an output invariant, or writes bytes that differ from the
  warm-up pass.

With ``--trace 1`` it holds the per-layer metrics of ``tracing.py``, the
throughput of each experiment (from the untraced passes of the same run),
``pass.wall_s``, the raw median wall time of an untraced pass, and
``trace.overhead_s``, traced minus untraced median pass time.  Metrics of
a layer or experiment that a workload never calls read 0.

Every run prints an environment block (kernel path and why, Python and
numpy versions, CPU count, git commit, seed) and the sha256 of every output
file, then the result as the last line of stdout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170.0

# experiment -> its throughput metric; units per operation come from workloads
THROUGHPUT = {
    "mud_compare": "mud.symbols_per_s",
    "cma_convergence": "cma.iters_per_s",
    "ber_sweep": "ber.bits_per_s",
    "channel_stats": "channel.draws_per_s",
    "la_sim": "la.node_rounds_per_s",
    "broadcast_sim": "broadcast.trials_per_s",
}


def git_commit(root: str):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the matrices are tiny, so extra threads only add noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup(manifest: str, env: dict, count: int, deadline: float) -> list[float]:
    """Seconds from launching a fresh interpreter to its parsed inputs."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, WORKER, manifest, "--setup-probe"],
                              stdout=subprocess.PIPE, env=env, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def throughputs(ops: list[dict], passes: list[dict]) -> dict[str, float]:
    units: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for p in passes:
        for op, dt in zip(ops, p["op_s"]):
            metric = THROUGHPUT.get(op["experiment"])
            if metric:
                units[metric] = units.get(metric, 0) + op["units"]
                seconds[metric] = seconds.get(metric, 0.0) + dt
    return {m: (units[m] / seconds[m] if m in units else 0.0)
            for m in THROUGHPUT.values()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bansim benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bansim", "__init__.py")):
        print("perfbench: run from the root of a bansim checkout "
              "(src/bansim not found)", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(root, "src"), quiet=1):
        print("perfbench: bansim sources do not compile", file=sys.stderr)
        return 2

    work = os.path.join(".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        ops = workloads.generate(args.workload, args.seed, work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"ops": ops, "out_dir": os.path.join(work, "out")}, fh)
        env = child_env()
        # probes before and after the worker, so that setup_s spans the same
        # stretch of machine load as the passes; the traced run skips them
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = time_setup(manifest, env, probes, deadline)
        cmd = [sys.executable, WORKER, manifest, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        setup += time_setup(manifest, env, probes, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass  # another run is still using it

    env_block = {
        "workload": args.workload,
        "seed": args.seed,
        **res["environment"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "git_commit": git_commit(root),
    }
    passes = res["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = len(res["failures"])
    attempted = res["attempted"]
    wall = statistics.median(p["wall_s"] for p in untraced)

    if args.trace:
        from tracing import layer_metrics

        metrics = layer_metrics([p["layers"] for p in traced])
        metrics["harness.emit_bytes"] = (
            statistics.median(p["emit_bytes"] for p in traced), "B")
        for name, value in throughputs(ops, untraced).items():
            metrics[name] = (value, "1/s")
        metrics["pass.wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - wall, "s")
    else:
        metrics = {
            "wall_rel": (statistics.median(p["wall_s"] / p["ref_s"] for p in untraced),
                         "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        }

    print(f"bansim benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env_block))
    print("outputs_sha256: " + json.dumps(res["outputs"]))
    walls = sorted(p["wall_s"] for p in untraced)
    refs = statistics.median(p["ref_s"] for p in untraced)
    print(f"passes: {len(passes)} measured ({len(traced)} traced) after a warm-up "
          f"pass of {res['warmup']['wall_s']:.4f} s; untraced pass wall median "
          f"{wall:.4f} s, min {walls[0]:.4f} s, max {walls[-1]:.4f} s; reference "
          f"loop median {refs:.4f} s; setup probes {len(setup)}; "
          f"run {time.perf_counter() - began:.1f} s")
    if not args.trace:
        for name, value in throughputs(ops, untraced).items():
            print(f"  {name:<36} {value:>16.6g} 1/s")
    for line in res["failures"]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
