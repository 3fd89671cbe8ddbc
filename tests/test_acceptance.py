"""End-to-end acceptance suite: one test per release criterion, each with an
independent oracle or committed fixture.  Run with ``pytest -v`` to get one
pass/fail line per criterion."""

import filecmp
import math
import re
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from bansim import channels, equalize, sigproc, zigbee
from bansim.harness import cli
from bansim.harness.config import parse_config
from bansim.harness.experiments import run_experiment
import channel_reference
from channel_reference import draw_streams
from bitstream import random_bits
from graphutil import (
    connected_atlas_graphs,
    flood,
    graph_to_scene,
    min_forward_set_size,
    random_connected_graphs,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
REF_CHANNEL = [0.227, 0.460, 0.688, 0.460, 0.227]


# --------------------------------------------------------------------------
# independent oracle: exact Gray-coded 16-QAM BER over AWGN.  The square
# constellation separates into two Gray-coded 4-PAM axes with levels
# {±1, ±3}/sqrt(10); per-axis BER follows from Gaussian tail masses over
# the decision regions, computed here without touching the simulator.


def qam16_ber_oracle(ebn0_db: float) -> float:
    d = 1.0 / np.sqrt(10.0)
    sigma = np.sqrt(1.0 / (2.0 * 4.0 * 10.0 ** (ebn0_db / 10.0)))
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) * d
    labels = [i ^ (i >> 1) for i in range(4)]  # Gray labels along the axis
    boundaries = [-np.inf, -2.0 * d, 0.0, 2.0 * d, np.inf]
    bit_errors = 0.0
    for i, x in enumerate(levels):
        for j in range(4):
            p = stats.norm.cdf((boundaries[j + 1] - x) / sigma) - stats.norm.cdf(
                (boundaries[j] - x) / sigma
            )
            bit_errors += p * bin(labels[i] ^ labels[j]).count("1")
    # 4 transmitted levels, 2 bits per axis; both axes are identical
    return bit_errors / (4 * 2)


def test_criterion_01_qam16_ber_matches_oracle():
    start = time.perf_counter()
    cfg = parse_config(
        "[common]\nseed = 12345\n[ber_sweep]\nscheme = QAM16\n"
        "ebn0_db = 0, 5, 10, 15\nmax_bits = 1000000\nmin_errors = 1000000\n",
        "ber_sweep",
    )
    [(_, table, _plot)] = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    grid = table.column("ebn0_db")
    bers = table.column("ber")
    assert grid == [0.0, 5.0, 10.0, 15.0]
    measured = bers[grid.index(10.0)]
    oracle = qam16_ber_oracle(10.0)
    assert abs(measured - oracle) <= 0.15 * oracle
    assert all(a > b for a, b in zip(bers, bers[1:]))  # strictly decreasing
    assert elapsed < 30.0


def test_criterion_02_outdoor_always_two_clusters():
    params = channels.BanModelParams()
    start = time.perf_counter()
    seeds = np.random.SeedSequence(2024).spawn(10_000)
    assert all(
        len(channels.gen_outdoor_ban(params, draw_streams(s, False))[1]) == 2
        for s in seeds
    )
    assert time.perf_counter() - start < 10.0


def test_criterion_03_decay_slopes_recovered():
    # intra-cluster: fading off makes the dB profile exactly linear in delay
    intra = channels.BanModelParams(gamma_ray_db_per_ns=1.6, sigma_ray_db=0.0)
    slopes = []
    delays = np.arange(intra.num_bins_per_cluster) * intra.delta_ns
    for seed in range(1000):
        [rays] = channels.gen_clusters(intra, [np.random.default_rng(seed)])
        amp_db = 20.0 * np.log10(np.abs(rays))
        slopes.append(stats.linregress(delays, amp_db).slope)
    mean_intra = float(np.mean(slopes))
    assert abs(mean_intra + 1.6) / 1.6 < 5e-4  # -gamma to 3 significant figures

    # inter-cluster: single-tap clusters on a fine grid isolate the
    # cluster-decay term; regress peak dB against cluster delay
    inter = channels.BanModelParams(
        delta_ns=0.01,
        num_bins_per_cluster=1,
        gamma_cluster_db_per_ns=0.8,
        gamma_ray_db_per_ns=0.0,
        mean_cluster_interarrival_ns=10.0,
    )
    slopes = []
    for seed in range(1000):
        taps, starts = channels.gen_ref(inter, 6, np.random.default_rng(seed))
        starts = np.asarray(starts)
        peak_db = 20.0 * np.log10(np.abs(taps[starts]))
        slopes.append(stats.linregress(starts * inter.delta_ns, peak_db).slope)
    mean_inter = float(np.mean(slopes))
    assert abs(mean_inter + 0.8) / 0.8 < 5e-4  # -Gamma to 3 significant figures


def test_criterion_04_path_loss_anchor_and_shadowing_spread():
    params = channels.PathLossParams(35.2, 0.1, 3.11, 6.1)
    assert channels.path_loss_db(0.1, params) == 35.2
    # the draws simulate_la makes: one Generator, one call per sample
    rng = np.random.default_rng(4)
    samples = np.array(
        [channels.path_loss_db(1.0, params, rng) for _ in range(100_000)]
    )
    assert abs(np.std(samples) - 6.1) <= 0.1


def test_criterion_05_gbhds_ks_and_doa_shape():
    params = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    radii, doa = channels.gbhds_block(
        params, 100_000, *channel_reference.gbhds_streams(100_000, 99))

    def cdf(r):
        return np.tanh(params.a * np.clip(r, 0.0, params.radius_m)) / np.tanh(
            params.a * params.radius_m
        )

    assert stats.kstest(radii, cdf).pvalue > 0.01
    bins = 61
    edges, masses = channels.gbhds_doa_histogram(
        params, 100_000, bins, *channel_reference.gbhds_streams(100_000, 99))
    los_bin = int(np.searchsorted(edges, 0.0) - 1)
    assert int(np.argmax(masses)) == los_bin
    lim = np.arcsin(params.radius_m / params.bs_distance_m)
    assert np.max(np.abs(doa)) <= lim + 1e-12


def _blind_run(scheme_name: str, mu: float, seed: int):
    scheme = sigproc.get_scheme(scheme_name)
    stride, nf, iterations, window = 3, 13, 20_000, 500
    rng = np.random.default_rng(seed)
    n_sym = iterations + nf + 32
    bits = rng.integers(0, 2, size=n_sym * scheme.bits_per_symbol, dtype=np.int8)
    symbols = sigproc.modulate(bits, scheme)
    received = channels.apply_channel(symbols, np.asarray(REF_CHANNEL, complex),
                                      stride)
    eq = equalize.CmaEqualizer.center_spike(
        nf, mu, equalize.dispersion_constant(scheme)
    )
    trace, _ = equalize.run_blind(received, eq, iterations, truth=symbols,
                                  rng=np.random.default_rng(0), stride=stride)
    initial = float(np.mean(trace[:window]))
    final = float(np.mean(trace[-window:]))
    return 10.0 * np.log10(initial / final)


def test_criterion_06_cma_convergence_on_reference_channel():
    assert _blind_run("QAM8", 0.0006, seed=7) >= 10.0
    assert _blind_run("QAM16", 0.0003, seed=7) >= 10.0
    assert abs(_blind_run("QAM16", 0.0, seed=7)) < 1.0  # zero step: flat trace


def test_criterion_07_receiver_ordering():
    cfg = parse_config(
        "[common]\nseed = 31\n[mud_compare]\nscheme = OQPSK\nebn0_db = 15.0\n"
        "symbols = 100000\ntraining = 2000\nns = 2\n"
        "template1 = 1.0, 0.5, 0.3\ntemplate2 = 0.6, 0.9, 0.2\n"
        "nw = 6\nnb = 3\nridge = 1e-9\n",
        "mud_compare",
    )
    [(_, table, _plot)] = run_experiment(cfg)
    rows = {name: (ser, mse) for name, ser, mse in table.rows}
    assert rows["linear_mud"][0] < rows["matched"][0]
    assert rows["dfe_mud"][1] <= rows["linear_mud"][1]


def test_criterion_08_wiener_beats_brute_force_grid():
    fixtures = [
        ([1.0], 1),
        ([1.0, 0.5], 2),
        ([0.9, 0.4, 0.2], 3),
    ]
    train = sigproc.modulate(random_bits(300, 77), sigproc.BPSK)
    for taps, n_w in fixtures:
        rx = sigproc.add_awgn(
            channels.apply_channel(train, np.asarray(taps, complex)), 20.0,
            sigproc.BPSK, np.random.default_rng(78)
        )
        gamma_rr, gamma_ar = equalize.estimate_correlations(rx, train, n_w)
        w = equalize.wiener_solve(gamma_rr, gamma_ar, ridge=1e-12)
        axis = np.arange(-1.0, 1.0 + 1e-9, 0.05)
        grids = np.meshgrid(*([axis] * n_w), indexing="ij")
        grid = np.stack([g.ravel() for g in grids], axis=1)
        frames = np.empty((train.size, n_w), dtype=complex)
        for k in range(train.size):
            chunk = rx[k : k + n_w]
            frames[k, : chunk.size] = chunk
            frames[k, chunk.size :] = 0.0
        closed_form = float(np.mean(np.abs(train - frames @ w) ** 2))
        est = frames @ grid.T
        grid_mse = np.mean(np.abs(train[:, None] - est) ** 2, axis=0)
        assert closed_form <= float(grid_mse.min()) + 1e-9


def test_criterion_09_link_adaptation_golden_trace():
    # configs/la_sim.cfg: two unshadowed nodes at 1 m and 3 m, 10 rounds
    cfg = parse_config((ROOT / "configs" / "la_sim.cfg").read_text(), "la_sim")
    [(_stem, table, _plot)] = run_experiment(cfg)
    header, *golden = (FIXTURES / "la_golden_trace.csv").read_text().splitlines()
    assert list(table.columns) == header.split(",")
    assert len(table.rows) == len(golden)
    for row, line in zip(table.rows, golden):
        rnd, node, level, snr_db, p_f, received = line.split(",")
        assert row[:3] == (int(rnd), int(node), int(level))
        assert row[3] == float(snr_db) and row[4] == float(p_f)
        assert received in ("0", "1") and row[5] == int(received)
    # rate never increases while the failure fraction exceeds its threshold
    th_pf = cfg.section("la_sim")["th_pf"]
    by_node = {}
    for row in table.rows:
        by_node.setdefault(row[1], []).append(row)
    for rows in by_node.values():
        for prev, cur in zip(rows, rows[1:]):
            if prev[4] > th_pf:
                assert cur[2] <= prev[2]


def _replay_soundness(radio: dict[int, set[int]], state: zigbee.BroadcastState):
    covered = set()
    for row in state.event_log:
        if row.action == "tx":
            covered |= {row.node} | radio[row.node]
        else:
            assert radio[row.node] <= covered, row.node


def test_criterion_10_broadcast_coverage_minimality_and_soundness():
    # 100% coverage on the shipped connected fixture, both strategies
    tree, radio = zigbee.parse_topology(
        (ROOT / "configs" / "topology_example.txt").read_text()
    )
    assert zigbee.oos_select(tree, radio, 0).covered == set(tree)
    assert flood(tree, radio, 0, 7, seed=0).covered == set(tree)

    # exhaustive small topologies: deterministic sweep vs brute-force minimum
    oos_total = min_total = graphs = 0
    for g in list(connected_atlas_graphs(7)) + random_connected_graphs(
        8, 50, 424242
    ):
        t, r = graph_to_scene(g)
        state = zigbee.oos_select(t, r, 0)
        assert state.covered == set(t)
        oos_total += len(state.forward_set)
        min_total += min_forward_set_size(g)
        graphs += 1
    recorded = {}
    for line in (FIXTURES / "oos_ratio.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=")
            recorded[key.strip()] = int(value)
    assert graphs == recorded["graphs"]
    assert oos_total == recorded["oos_total"]
    assert min_total == recorded["min_total"]

    # self-pruning soundness: a skipped node's neighborhood is covered
    rng = np.random.default_rng(3)
    runs = 0
    while runs < 1000:
        g = nx.erdos_renyi_graph(
            int(rng.integers(5, 16)), 0.35, seed=int(rng.integers(2**31))
        )
        if not nx.is_connected(g):
            continue
        t, r = graph_to_scene(g)
        state = flood(t, r, 0, 7, seed=int(rng.integers(2**31)))
        assert state.covered == set(t)
        _replay_soundness(r, state)
        runs += 1


CLI_RUNS = [
    ("ber_sweep", "ber_sweep.cfg"),
    ("channel_stats", "channel_stats.cfg"),
    ("doa_hist", "doa_hist.cfg"),
    ("cma_convergence", "cma_convergence_qam8.cfg"),
    ("cma_convergence", "cma_convergence_qam16.cfg"),
    ("mud_compare", "mud_compare.cfg"),
    ("la_sim", "la_sim.cfg"),
    ("broadcast_sim", "broadcast_sim.cfg"),
]


def assert_matches_golden(csv_path: Path, golden_path: Path) -> None:
    """Compare a CSV with its committed golden: provenance lines, header,
    integer and text cells exact, float cells at rtol 1e-9.  A golden that
    starts with ``# golden stride=S rows=N`` holds every S-th of N rows."""
    want = golden_path.read_text().splitlines()
    got = csv_path.read_text().splitlines()
    stride, rows = 1, None
    if want[0].startswith("# golden "):
        meta = dict(f.split("=") for f in want.pop(0).split()[2:])
        stride, rows = int(meta["stride"]), int(meta["rows"])
    head = next(i for i, line in enumerate(want) if not line.startswith("#")) + 1
    assert got[:head] == want[:head], csv_path.name
    body = got[head:]
    if rows is not None:
        assert len(body) == rows, csv_path.name
    body = body[::stride]
    assert len(body) == len(want) - head, csv_path.name
    for row, (got_line, want_line) in enumerate(zip(body, want[head:])):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells), (csv_path.name, row)
        for g, w in zip(got_cells, want_cells):
            if re.fullmatch(r"-?\d+", w):
                assert g == w, (csv_path.name, row)
                continue
            try:
                gf, wf = float(g), float(w)
            except ValueError:
                assert g == w, (csv_path.name, row)
                continue
            assert (gf == wf or math.isclose(gf, wf, rel_tol=1e-9)
                    or (math.isnan(gf) and math.isnan(wf))), (csv_path.name, row, g, w)


def test_criterion_11_cli_outputs_reproducible(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for experiment, config in CLI_RUNS:
        out_a = tmp_path / f"{config}.a"
        out_b = tmp_path / f"{config}.b"
        for out in (out_a, out_b):
            code = cli.main(
                [experiment, "--config", str(ROOT / "configs" / config),
                 "--out", str(out)]
            )
            assert code == 0, (experiment, config)
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert names, config
        for name in names:
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
        # the first run also matches the committed golden of every table
        goldens = FIXTURES / "golden" / Path(config).stem
        assert sorted(p.name for p in goldens.iterdir()) == [
            n for n in names if n.endswith(".csv")], config
        for golden in goldens.iterdir():
            assert_matches_golden(out_a / golden.name, golden)


def test_criterion_11_indoor_channel_matches_golden(tmp_path):
    # the shipped channel_stats config is outdoor only; this one runs the
    # indoor model (reflection clusters, every fading term and shadowing)
    config = FIXTURES / "channel_stats_indoor.cfg"
    out = tmp_path / "indoor"
    assert cli.main(["channel_stats", "--config", str(config), "--out", str(out)]) == 0
    golden = FIXTURES / "golden" / "channel_stats_indoor" / "channel_stats.csv"
    assert_matches_golden(out / "channel_stats.csv", golden)
