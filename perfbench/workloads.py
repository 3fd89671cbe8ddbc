"""Seeded inputs and output checks for the three benchmark workloads.

Every input is written as a file the ``bansim`` CLI could read: one INI
config per operation and, for ``network``, a topology file.  Sizes are
fixed per workload; the seed only changes the values drawn, so a pass does
the same amount of work on every seed.

An operation is one experiment run on one config.  ``check_op`` returns
the list of invariants its outputs break (empty when correct).
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("receivers", "link_montecarlo", "network")

# receivers
MUD_SYMBOLS = 40_000
CMA_ITERATIONS = 30_000
# link_montecarlo
# bits per Eb/N0 point, a multiple of 3 and 4; min_errors above it fixes the work
BER_BITS = 360_000
BER_GRID = (0.0, 4.0, 8.0, 12.0)
OUTDOOR_DRAWS = 1_500
INDOOR_DRAWS = 600
INDOOR_CLUSTERS = 4
DOA_SAMPLES = 1_000_000
DOA_BINS = 61
# network
LA_NODES = 200
LA_ROUNDS = 20
TREE_NODES = 1_500
TREE_N_CHL = 4
TREE_D_L = 6
EXTRA_NEIGHBORS = 3  # nearest non-tree radio neighbours per node
BROADCAST_TRIALS = 12


def _cfg_text(experiment: str, seed: int, body: dict) -> str:
    lines = [f"# {experiment} input generated by perfbench", "[common]",
             f"seed = {seed}", "", f"[{experiment}]"]
    for key, value in body.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def gen_zigbee_topology(rng: np.random.Generator, n_nodes: int, n_chl: int,
                        d_l: int, extra: int) -> str:
    """A random tree within the n_chl/d_l limits, plus symmetric radio edges.

    Nodes get 2-D positions a short hop from their parent; each node also
    hears its ``extra`` nearest nodes that are not its tree neighbours, so
    the radio graph is local and always contains the (connected) tree.
    """
    parent = np.full(n_nodes, -1)
    depth = np.zeros(n_nodes, dtype=int)
    kids = np.zeros(n_nodes, dtype=int)
    pos = np.zeros((n_nodes, 2))
    open_nodes = [0]  # nodes that may still take a child
    for node in range(1, n_nodes):
        slot = int(rng.integers(len(open_nodes)))
        p = open_nodes[slot]
        parent[node], depth[node] = p, depth[p] + 1
        kids[p] += 1
        if kids[p] == n_chl:
            open_nodes[slot] = open_nodes[-1]
            open_nodes.pop()
        if depth[node] < d_l:
            open_nodes.append(node)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        hop = rng.uniform(0.5, 1.0)
        pos[node] = pos[p] + hop * np.array([math.cos(angle), math.sin(angle)])
    tree_edges = {(int(parent[c]), c) for c in range(1, n_nodes)}
    undirected = {(min(a, b), max(a, b)) for a, b in tree_edges}
    radio = set()
    for start in range(0, n_nodes, 256):
        block = pos[start:start + 256]
        d2 = ((block[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        for row, node in enumerate(range(start, start + block.shape[0])):
            added = 0
            for other in order[row, 1:]:
                pair = (min(node, int(other)), max(node, int(other)))
                if pair in undirected:
                    continue
                radio.add(pair)
                added += 1
                if added == extra:
                    break
    lines = ["# random ZigBee tree generated by perfbench", "[params]",
             f"n_chl = {n_chl}", f"d_l = {d_l}", "", "[tree]"]
    lines += [f"{a} {b}" for a, b in sorted(tree_edges)]
    lines += ["", "[radio]"]
    lines += [f"{a} {b}" for a, b in sorted(radio)]
    return "\n".join(lines) + "\n"


def gen_la_nodes(rng: np.random.Generator, n_nodes: int):
    """Node distances (m) and transmit powers (dBm) for ``la_sim``."""
    distances = np.round(rng.uniform(0.3, 3.0, size=n_nodes), 3)
    powers = rng.choice([-10.0, -5.0, 0.0], size=n_nodes)
    return [float(d) for d in distances], [float(p) for p in powers]


def generate(workload: str, seed: int, work_dir: str) -> list[dict]:
    """Write the workload's input files; return its operations in pass order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)

    def cfg_seed() -> int:
        return int(rng.integers(1, 2**31))

    ops = []

    def add(name: str, experiment: str, body: dict, units: int, **expect) -> None:
        path = os.path.join(work_dir, f"{name}.cfg")
        with open(path, "w", newline="\n") as fh:
            fh.write(_cfg_text(experiment, cfg_seed(), body))
        ops.append({"name": name, "experiment": experiment, "config": path,
                    "units": units, "expect": expect})

    if workload == "receivers":
        add("mud_oqpsk", "mud_compare",
            {"scheme": "OQPSK", "ebn0_db": 15.0, "symbols": MUD_SYMBOLS,
             "training": 2000, "ns": 2, "nw": 6, "nb": 3, "ridge": 1e-9,
             "template1": (1.0, 0.5, 0.3), "template2": (0.6, 0.9, 0.2)},
            units=3 * MUD_SYMBOLS)
        # DSE-CMA on the reference channel settles slower than CMA, so only
        # CMA is held to the 10 dB convergence criterion
        for name, scheme, variant, mu, min_db in (
                ("cma_qam16", "QAM16", "CMA", 0.0003, 10.0),
                ("dse_cma_qam8", "QAM8", "DSE_CMA", 0.00005, 3.0)):
            add(name, "cma_convergence",
                {"scheme": scheme, "variant": variant, "mu": mu,
                 "channel": (0.227, 0.460, 0.688, 0.460, 0.227),
                 "samples_per_symbol": 3, "nf": 13,
                 "iterations": CMA_ITERATIONS, "window": 500},
                units=CMA_ITERATIONS, min_improvement_db=min_db)
    elif workload == "link_montecarlo":
        for scheme in ("QAM16", "QAM8"):
            add(f"ber_{scheme.lower()}", "ber_sweep",
                {"scheme": scheme, "ebn0_db": BER_GRID, "max_bits": BER_BITS,
                 "min_errors": BER_BITS + 1},
                units=BER_BITS * len(BER_GRID), scheme=scheme)
        add("channel_outdoor", "channel_stats",
            {"model": "outdoor_ban", "draws": OUTDOOR_DRAWS},
            units=OUTDOOR_DRAWS, model="outdoor_ban")
        add("channel_indoor", "channel_stats",
            {"model": "indoor_ban", "draws": INDOOR_DRAWS,
             "num_clusters": INDOOR_CLUSTERS},
            units=INDOOR_DRAWS, model="indoor_ban")
        add("doa", "doa_hist",
            {"a": 0.5, "radius_m": 100.0, "bs_distance_m": 1000.0,
             "count": DOA_SAMPLES, "bins": DOA_BINS},
            units=DOA_SAMPLES, bins=DOA_BINS)
    else:
        distances, powers = gen_la_nodes(rng, LA_NODES)
        add("la_shadowed", "la_sim",
            {"rounds": LA_ROUNDS, "distance_m": distances,
             "tx_power_dbm": powers, "sigma_db": 4.0, "window": 16},
            units=LA_NODES * LA_ROUNDS, nodes=LA_NODES, rounds=LA_ROUNDS)
        topo = os.path.join(work_dir, "topology.txt")
        with open(topo, "w", newline="\n") as fh:
            fh.write(gen_zigbee_topology(rng, TREE_NODES, TREE_N_CHL, TREE_D_L,
                                         EXTRA_NEIGHBORS))
        add("broadcast_tree", "broadcast_sim",
            {"topology": topo, "source": 0, "trials": BROADCAST_TRIALS,
             "max_backoff": 7},
            units=BROADCAST_TRIALS)
    return ops


def qam16_ber(ebn0_db: float) -> float:
    """Exact Gray-coded 16-QAM bit-error rate over AWGN (two 4-PAM axes)."""
    d = 1.0 / math.sqrt(10.0)
    sigma = math.sqrt(1.0 / (8.0 * 10.0 ** (ebn0_db / 10.0)))
    levels = [-3 * d, -d, d, 3 * d]
    gray = [i ^ (i >> 1) for i in range(4)]
    bounds = [-math.inf, -2 * d, 0.0, 2 * d, math.inf]

    def below(x: float) -> float:
        return 0.5 * math.erfc(-x / (sigma * math.sqrt(2.0)))

    errors = 0.0
    for i, x in enumerate(levels):
        for j in range(4):
            p = below(bounds[j + 1] - x) - below(bounds[j] - x)
            errors += p * bin(gray[i] ^ gray[j]).count("1")
    return errors / 8.0


def check_op(op: dict, outputs) -> list[str]:
    """Invariants of one operation's result tables; returns the violations."""
    tables = {stem: table for stem, table, _plot in outputs}
    exp, expect = op["experiment"], op["expect"]
    bad = []
    if exp == "mud_compare":
        mse = {row[0]: row[2] for row in tables["mud_compare"].rows}
        if not mse["dfe_mud"] < mse["linear_mud"] < mse["matched"]:
            bad.append(f"MSE ordering DFE < linear MUD < matched broken: {mse}")
    elif exp == "cma_convergence":
        gain = tables["cma_summary"].rows[0][2]
        if not gain >= expect["min_improvement_db"]:
            bad.append(f"blind equalizer improved {gain:.2f} dB "
                       f"< {expect['min_improvement_db']} dB")
        if len(tables["cma_trace"].rows) != op["units"]:
            bad.append("trace length differs from the iteration count")
    elif exp == "ber_sweep":
        rows = tables["ber_sweep"].rows
        bers = [r[1] for r in rows]
        if sum(r[2] for r in rows) != op["units"]:
            bad.append("simulated bit count differs from the configured count")
        if not all(a > b for a, b in zip(bers, bers[1:])) or not 0 < bers[-1]:
            bad.append(f"BER not strictly decreasing and positive: {bers}")
        if expect["scheme"] == "QAM16":
            for ebn0, ber, bits in rows:
                ref = qam16_ber(ebn0)
                # errors within a symbol are correlated: widen by bits/symbol
                band = 6.0 * math.sqrt(4.0 * ref / bits)
                if abs(ber - ref) > band:
                    bad.append(f"QAM16 BER {ber:.3g} at {ebn0} dB outside "
                               f"{ref:.3g} +- {band:.2g}")
    elif exp == "channel_stats":
        rows = tables["channel_stats"].rows
        if len(rows) != op["units"]:
            bad.append(f"{len(rows)} rows for {op['units']} draws")
        if expect["model"] == "outdoor_ban" and any(r[1] != 2 for r in rows):
            bad.append("outdoor draw without exactly two clusters")
        if not all(math.isfinite(r[3]) and r[3] > 0 for r in rows):
            bad.append("non-positive or non-finite channel energy")
    elif exp == "doa_hist":
        masses = tables["doa_hist"].column("mass")
        if len(masses) != expect["bins"] or abs(sum(masses) - 1.0) > 1e-9:
            bad.append("DOA histogram does not hold unit mass in its bins")
    elif exp == "la_sim":
        rows = len(tables["la_trace"].rows)
        if rows != expect["rounds"] * expect["nodes"]:
            bad.append(f"la_sim wrote {rows} rows, expected rounds x nodes")
    elif exp == "broadcast_sim":
        for strategy, _mean, coverage, _size in tables["broadcast_compare"].rows:
            if coverage != 1.0:
                bad.append(f"{strategy} coverage {coverage} on a connected tree")
    return bad
