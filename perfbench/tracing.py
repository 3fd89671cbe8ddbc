"""Spans around the calls into each bansim layer, and the per-layer metrics.

``Tracer.install`` replaces public functions by timing wrappers at the module
attributes their callers look up (``equalize`` calls ``_kernels.cma_run`` and
its by-name import ``slice_symbols``; the harness calls ``sigproc.demodulate``
and the others through their modules).  ``uninstall`` restores the originals,
so untraced passes run the unmodified program.  Spans stay in memory and are
folded into per-pass figures by ``fold``.

Operation counts and bytes are computed from argument sizes, not measured:
a complex multiply-accumulate is 8 flops and a distance |x - c| is 6 flops
(2 subtractions, 2 multiplications, 1 addition, 1 square root).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager

CMAC_FLOPS = 8
DISTANCE_FLOPS = 6
DIST_MATRIX_BYTES = 16 + 8  # complex difference plus its float magnitude


def _cma(a, _out):
    steps = a["max_steps"]
    return {"cma_iters": steps, "flops": steps * 2 * a["taps"].size * CMAC_FLOPS}


def _dse_cma(a, _out):
    steps = a["max_steps"]
    return {"dse_iters": steps, "flops": steps * 2 * a["taps"].size * CMAC_FLOPS}


def _dfe(a, _out):
    per_symbol = ((a["w_ff"].size + a["w_fb"].size) * CMAC_FLOPS
                  + a["constellation"].size * DISTANCE_FLOPS)
    return {"dfe_symbols": a["n_sym"], "flops": a["n_sym"] * per_symbol}


def _dist_matrix(a, _out):
    n, m = len(a["symbols"]), a["scheme"].constellation.size
    return {"symbols": n, "dist_bytes": n * m * DIST_MATRIX_BYTES}


def _symbols(a, _out):
    return {"symbols": len(a["symbols"])}


def _linear_mud(a, _out):
    return {"symbols": a["num_symbols"]}


def _doa(a, _out):
    return {"samples": a["count"]}


def _la(a, _out):
    n, rounds = len(a["nodes"]), a["rounds"]
    return {"node_rounds": n * rounds, "interference_terms": n * (n - 1) * rounds}


def _self_pruning(_a, out):
    tx = sum(1 for row in out.event_log if row.action == "tx")
    return {"trials": 1, "tx": tx, "events": len(out.event_log)}


# (module, attribute, layer, meter); a meter maps the call's bound arguments
# and its result to counts
INSTRUMENTS = (
    ("bansim._kernels", "cma_run", "kernels", _cma),
    ("bansim._kernels", "dse_cma_run", "kernels", _dse_cma),
    ("bansim._kernels", "dfe_detect_run", "kernels", _dfe),
    ("bansim.equalize", "synth_multiuser", "equalize", None),
    ("bansim.equalize", "estimate_correlations", "equalize", None),
    ("bansim.equalize", "wiener_solve", "equalize", None),
    ("bansim.equalize", "dfe_train", "equalize", None),
    ("bansim.equalize", "linear_mud_detect", "equalize", _linear_mud),
    ("bansim.equalize", "dfe_detect", "equalize", None),
    ("bansim.equalize", "run_blind", "equalize", None),
    ("bansim.equalize", "slice_symbols", "sigproc", None),
    ("bansim.sigproc", "nearest_labels", "sigproc", _dist_matrix),
    ("bansim.sigproc", "modulate", "sigproc", None),
    ("bansim.sigproc", "demodulate", "sigproc", _dist_matrix),
    ("bansim.sigproc", "add_awgn", "sigproc", _symbols),
    ("bansim.channels", "gen_outdoor_ban", "channels", None),
    ("bansim.channels", "gen_indoor_ban", "channels", None),
    ("bansim.channels", "gbhds_doa_histogram", "channels", _doa),
    ("bansim.channels", "apply_channel", "channels", None),
    ("bansim.linkadapt", "simulate_la", "linkadapt", _la),
    ("bansim.zigbee", "parse_topology", "zigbee", None),
    ("bansim.zigbee", "broadcast_compare", "zigbee", None),
    ("bansim.zigbee", "self_pruning_broadcast", "zigbee", _self_pruning),
    ("bansim.zigbee", "oos_select", "zigbee", None),
)

LAYERS = ("kernels", "equalize", "sigproc", "channels", "linkadapt", "zigbee",
          "harness")

# Span record fields, kept as a list for speed.
NAME, LAYER, START, END, PARENT, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, layer: str, meter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if meter is not None:
                rec[COUNTS] = meter(signature.bind(*args, **kwargs).arguments, out)
            return out
        return traced

    def install(self) -> None:
        for mod_name, attr, layer, meter in INSTRUMENTS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer, meter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def fold(self) -> dict:
        """Fold and drop the recorded spans; returns one pass's figures."""
        spans, self.spans = self.spans, []
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        busy = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        self_time = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        counts: dict[str, float] = {}
        draws = 0
        for i, rec in enumerate(spans):
            name, layer = rec[NAME], rec[LAYER]
            dur = rec[END] - rec[START]
            outer = rec[PARENT] < 0 or spans[rec[PARENT]][LAYER] != layer
            if outer:
                busy[layer] += dur
                # gen_indoor_ban calls gen_outdoor_ban: one draw per outer call
                if name in ("channels.gen_outdoor_ban", "channels.gen_indoor_ban"):
                    draws += 1
                    by_name["channels.draw"] = by_name.get("channels.draw", 0.0) + dur
            calls[layer] += 1
            self_time[layer] += dur - child_time[i]
            by_name[name] = by_name.get(name, 0.0) + dur
            self_by_name[name] = self_by_name.get(name, 0.0) + dur - child_time[i]
            for key, value in (rec[COUNTS] or {}).items():
                ckey = f"{name}.{key}"
                counts[ckey] = counts.get(ckey, 0) + value
        counts["channels.draws"] = draws
        return {"busy": busy, "calls": calls, "self": self_time, "time": by_name,
                "self_by_name": self_by_name, "counts": counts}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over traced passes: medians of per-pass times and
    counts, and per-unit costs as total time over total units."""
    def med(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def total_time(name: str) -> float:
        return sum(p["time"].get(name, 0.0) for p in passes)

    def total_count(key: str) -> float:
        return sum(p["counts"].get(key, 0) for p in passes)

    def per_unit(name: str, key: str, scale: float) -> float:
        return _ratio(total_time(name), total_count(key), scale)

    flops_keys = ("kernels.cma_run.flops", "kernels.dse_cma_run.flops",
                  "kernels.dfe_detect_run.flops")
    dist_keys = ("sigproc.demodulate.dist_bytes", "sigproc.nearest_labels.dist_bytes")
    sp_trials = total_count("zigbee.self_pruning_broadcast.trials")
    m = {
        "kernels.busy_s": (med(lambda p: p["busy"]["kernels"]), "s"),
        "kernels.calls": (med(lambda p: p["calls"]["kernels"]), "count"),
        "kernels.cma.ns_per_iter": (per_unit(
            "kernels.cma_run", "kernels.cma_run.cma_iters", 1e9), "ns"),
        "kernels.dse_cma.ns_per_iter": (per_unit(
            "kernels.dse_cma_run", "kernels.dse_cma_run.dse_iters", 1e9), "ns"),
        "kernels.dfe.ns_per_symbol": (per_unit(
            "kernels.dfe_detect_run", "kernels.dfe_detect_run.dfe_symbols", 1e9),
            "ns"),
        "kernels.flops_computed": (med(lambda p: sum(
            p["counts"].get(k, 0) for k in flops_keys)), "flop"),
        "equalize.busy_s": (med(lambda p: p["busy"]["equalize"]), "s"),
        "equalize.self_s": (med(lambda p: p["self"]["equalize"]), "s"),
        "equalize.linear_mud.ns_per_symbol": (per_unit(
            "equalize.linear_mud_detect", "equalize.linear_mud_detect.symbols",
            1e9), "ns"),
        "equalize.train_s": (med(lambda p: sum(p["time"].get(k, 0.0) for k in (
            "equalize.estimate_correlations", "equalize.wiener_solve",
            "equalize.dfe_train"))), "s"),
        "equalize.run_blind.self_s": (med(lambda p: p["self_by_name"].get(
            "equalize.run_blind", 0.0)), "s"),
        "sigproc.busy_s": (med(lambda p: p["busy"]["sigproc"]), "s"),
        "sigproc.demodulate.ns_per_symbol": (per_unit(
            "sigproc.demodulate", "sigproc.demodulate.symbols", 1e9), "ns"),
        "sigproc.add_awgn.ns_per_symbol": (per_unit(
            "sigproc.add_awgn", "sigproc.add_awgn.symbols", 1e9), "ns"),
        "sigproc.demod_bytes_computed": (med(lambda p: sum(
            p["counts"].get(k, 0) for k in dist_keys)), "B"),
        "channels.busy_s": (med(lambda p: p["busy"]["channels"]), "s"),
        "channels.us_per_draw": (per_unit(
            "channels.draw", "channels.draws", 1e6), "us"),
        "channels.doa.ns_per_sample": (per_unit(
            "channels.gbhds_doa_histogram",
            "channels.gbhds_doa_histogram.samples", 1e9), "ns"),
        "linkadapt.busy_s": (med(lambda p: p["busy"]["linkadapt"]), "s"),
        "linkadapt.us_per_node_round": (per_unit(
            "linkadapt.simulate_la", "linkadapt.simulate_la.node_rounds", 1e6),
            "us"),
        "linkadapt.interference_terms": (med(lambda p: p["counts"].get(
            "linkadapt.simulate_la.interference_terms", 0)), "count"),
        "zigbee.busy_s": (med(lambda p: p["busy"]["zigbee"]), "s"),
        "zigbee.self_pruning.ms_per_trial": (_ratio(
            total_time("zigbee.self_pruning_broadcast"), sp_trials, 1e3), "ms"),
        "zigbee.tx_ratio": (_ratio(
            total_count("zigbee.self_pruning_broadcast.tx"),
            total_count("zigbee.self_pruning_broadcast.events")), "ratio"),
        "zigbee.oos_s": (med(lambda p: p["time"].get("zigbee.oos_select", 0.0)),
                         "s"),
        "zigbee.parse_topology_s": (med(lambda p: p["time"].get(
            "zigbee.parse_topology", 0.0)), "s"),
        "harness.parse_s": (med(lambda p: p["time"].get("harness.parse", 0.0)),
                            "s"),
        "harness.self_s": (med(lambda p: p["self_by_name"].get("harness.run", 0.0)),
                           "s"),
        "harness.emit_s": (med(lambda p: p["time"].get("harness.emit", 0.0)), "s"),
    }
    return m
