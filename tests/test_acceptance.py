"""End-to-end acceptance suite: one test per release criterion, each with an
independent oracle or committed fixture.  Run with ``pytest -v`` to get one
pass/fail line per criterion."""

import dataclasses
import hashlib
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
import pins

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
REF_CHANNEL = [0.227, 0.460, 0.688, 0.460, 0.227]


# --------------------------------------------------------------------------
# independent oracle: exact BER of a Gray-coded rectangular constellation
# over AWGN.  Each rail (real or imaginary part) carries its own bits, Gray
# coded along its sorted levels and sliced at the midpoints between them, so
# a rail's bit errors are Gaussian tail masses between midpoints weighted by
# the Hamming distance of the two levels' Gray labels.  It reads the points
# of a scheme, never its labels, thresholds or noise scale: the symbol
# energy comes from the points, so a wrongly scaled constellation or a
# label off the Gray sequence disagrees with it.


def gray_ber_oracle(constellation: np.ndarray, ebn0_db: float) -> float:
    bps = int(np.log2(constellation.size))
    es = float(np.mean(np.abs(constellation) ** 2))
    sigma = np.sqrt(es / (2.0 * bps * 10.0 ** (ebn0_db / 10.0)))
    bit_errors = 0.0
    for rail in (constellation.real, constellation.imag):
        levels = np.unique(rail)
        edges = np.concatenate([[-np.inf], (levels[:-1] + levels[1:]) / 2, [np.inf]])
        gray = [i ^ (i >> 1) for i in range(levels.size)]
        # each level of a rail is sent equally often
        for sent, x in zip(gray, levels):
            masses = np.diff(stats.norm.cdf((edges - x) / sigma))
            bit_errors += sum(m * bin(sent ^ g).count("1")
                              for m, g in zip(masses, gray)) / levels.size
    return bit_errors / bps


def test_criterion_01_ber_matches_gray_oracle():
    grid, bits = [0.0, 4.0, 8.0], 1_200_000
    # the oracle against the closed forms: BPSK's Q(sqrt(2 Eb/N0)), and Gray
    # 16-QAM's (3/4) Q(x) plus the two- and three-level crossings, (1/2) Q(3x)
    # and -(1/4) Q(5x), at x = sqrt(4/5 Eb/N0)
    for ebn0_db in grid:
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        assert gray_ber_oracle(sigproc.BPSK.constellation, ebn0_db) == pytest.approx(
            stats.norm.sf(np.sqrt(2.0 * ebn0)), rel=1e-12)
        x = np.sqrt(0.8 * ebn0)
        qam16 = (0.75 * stats.norm.sf(x) + 0.5 * stats.norm.sf(3 * x)
                 - 0.25 * stats.norm.sf(5 * x))
        assert gray_ber_oracle(sigproc.QAM16.constellation, ebn0_db) == pytest.approx(
            qam16, rel=1e-12)
    # seed fixed before the first run; 1.2e6 bits per point is a whole number
    # of symbols of every scheme.  The bits of one symbol share its noise, so
    # the per-bit variance p(1 - p) / n is widened by bits_per_symbol (an
    # upper bound: a symbol's e errors have Var e <= bps**2 p (1 - p)); a
    # point passes at |z| <= 4, a false alarm of 6.3e-5 per point
    start = time.perf_counter()
    for scheme in sigproc.SCHEMES.values():
        cfg = parse_config(
            f"[common]\nseed = 3401\n[ber_sweep]\nscheme = {scheme.kind}\n"
            f"ebn0_db = {', '.join(map(str, grid))}\nmax_bits = {bits}\n"
            f"min_errors = {bits}\n",
            "ber_sweep",
        )
        [(_, table, _plot)] = run_experiment(cfg)
        assert table.column("ebn0_db") == grid
        assert table.column("bits") == [bits] * len(grid)
        bers = table.column("ber")
        for ebn0_db, measured in zip(grid, bers):
            oracle = gray_ber_oracle(scheme.constellation, ebn0_db)
            sd = math.sqrt(scheme.bits_per_symbol * oracle * (1.0 - oracle) / bits)
            assert abs(measured - oracle) <= 4.0 * sd, (scheme.kind, ebn0_db)
        assert all(a > b for a, b in zip(bers, bers[1:]))  # strictly decreasing
    assert time.perf_counter() - start < 30.0


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
    unshadowed = channels.PathLossParams(35.2, 0.1, 3.11, 0.0)
    assert channels.path_loss_db(0.1, unshadowed, np.random.default_rng(4)) == 35.2
    # the draws simulate_la makes: one Generator, one call per sample
    rng = np.random.default_rng(4)
    samples = np.array(
        [channels.path_loss_db(1.0, params, rng) for _ in range(100_000)]
    )
    assert abs(np.std(samples) - 6.1) <= 0.1


def test_criterion_05_gbhds_ks_and_doa_shape():
    params = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    doa = channels.gbhds_block(
        params, 100_000, *channel_reference.gbhds_streams(100_000, 99))
    # the model's angles are the reference's, drawn from these radii
    radii = channel_reference.sample_gbhds(params, 100_000, 99)[:, 0]
    assert doa.tobytes() == channel_reference.gbhds_doa(params, 100_000, 99).tobytes()

    def cdf(r):
        return np.tanh(params.a * np.clip(r, 0.0, params.radius_m)) / np.tanh(
            params.a * params.radius_m
        )

    assert stats.kstest(radii, cdf).pvalue > 0.01
    bins = 61
    lim = np.arcsin(params.radius_m / params.bs_distance_m)
    edges = np.linspace(-lim, lim, bins + 1)
    masses = channels.gbhds_doa_histogram(
        params, 100_000, edges, *channel_reference.gbhds_streams(100_000, 99))
    los_bin = int(np.searchsorted(edges, 0.0) - 1)
    assert int(np.argmax(masses)) == los_bin
    assert np.max(np.abs(doa)) <= lim + 1e-12


# independent oracle: the DOA bin masses of the GBHDS scatterers.  A radius r
# has CDF tanh(a r) / tanh(a R), so r(u) = artanh(u tanh(a R)) / a for a
# uniform u.  At a given r the scatterer runs round a circle about the mobile,
# (D + r cos t, r sin t) for a uniform t, and its DOA lies below x where the
# circle lies below the line through the base station at angle x: where
# cos(t - x - pi/2) < D sin(x) / r, so P(DOA < x | r) = 1 - arccos(c) / pi with
# c = D sin(x) / r clipped to [-1, 1].  The masses average that CDF's steps
# over the edges at the midpoints of n cells of u.
def gbhds_doa_masses(params: channels.GbhdsParams, edges: np.ndarray,
                     n: int = 20_000) -> np.ndarray:
    u = (np.arange(n) + 0.5) / n
    r = np.arctanh(u * np.tanh(params.a * params.radius_m)) / params.a
    c = np.clip(params.bs_distance_m * np.sin(edges)[:, None] / r, -1.0, 1.0)
    return np.diff((1.0 - np.arccos(c) / np.pi).mean(axis=1))


def test_criterion_05_doa_masses_match_quadrature():
    """A chi-squared test of gbhds_doa_histogram against the oracle's masses,
    at an a whose DOA mass spreads over the shipped 61 bins."""
    params = channels.GbhdsParams(a=0.05, radius_m=100.0, bs_distance_m=1000.0)
    count, bins, seed = 100_000, 61, 3501
    lim = float(np.arcsin(params.radius_m / params.bs_distance_m))
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(-lim, lim))
    expected = gbhds_doa_masses(params, edges)
    assert expected.sum() == pytest.approx(1.0, abs=1e-12)
    # the oracle against the sampler's own two uniforms on a midpoint grid
    u = (np.arange(1000) + 0.5) / 1000
    r = np.arctanh(u * np.tanh(params.a * params.radius_m))[:, None] / params.a
    t = 2.0 * np.pi * u
    doa = np.arctan2(r * np.sin(t), params.bs_distance_m + r * np.cos(t))
    assert np.abs(np.histogram(doa, edges)[0] / doa.size - expected).max() < 1e-4
    # the bins expected to hold at least 5 samples (45 of them), and the rest
    # pooled into one cell; bound at a false-alarm rate of 1e-4
    keep = count * expected >= 5
    assert keep.sum() == 45

    def chi_squared(a: float) -> float:
        drawn = dataclasses.replace(params, a=a)
        masses = channels.gbhds_doa_histogram(
            drawn, count, edges, *channel_reference.gbhds_streams(count, seed))
        observed = np.append(masses[keep], masses[~keep].sum()) * count
        cells = np.append(expected[keep], expected[~keep].sum()) * count
        return float(((observed - cells) ** 2 / cells).sum())

    bound = stats.chi2.isf(1e-4, keep.sum())
    assert chi_squared(params.a) < bound
    # draws with a set 20% too high fail the same test
    assert chi_squared(1.2 * params.a) > bound


def _blind_run(scheme_name: str, mu: float, seed: int):
    scheme = sigproc.SCHEMES[scheme_name]
    stride, nf, iterations, window = 3, 13, 20_000, 500
    rng = np.random.default_rng(seed)
    n_sym = iterations + nf + 32
    bits = rng.integers(0, 2, size=n_sym * scheme.bits_per_symbol, dtype=np.int8)
    symbols = sigproc.modulate(bits, scheme)
    received = channels.apply_channel(symbols, np.asarray(REF_CHANNEL, complex),
                                      stride)
    trace, _ = equalize.run_blind(
        received, nf, mu, equalize.dispersion_constant(scheme), "CMA",
        iterations, truth=symbols, rng=np.random.default_rng(0), stride=stride)
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
    rows = {name: (ser, mse) for name, ser, mse in zip(
        table.column("receiver"), table.column("ser"), table.column("mse"))}
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
            channels.apply_channel(train, np.asarray(taps, complex), 1), 20.0,
            sigproc.BPSK, np.random.default_rng(78)
        )
        gamma_rr, gamma_ar = equalize.estimate_correlations(rx, train, n_w, 1)
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
    names = header.split(",")
    assert list(table.columns) == names
    assert len(table.column("round")) == len(golden)
    cells = list(zip(*(line.split(",") for line in golden)))
    assert set(cells[names.index("received")]) <= {"0", "1"}
    for name, kind, want in zip(names, (int, int, int, float, float, int), cells):
        assert table.column(name) == [kind(c) for c in want], name
    # rate never increases while the failure fraction exceeds its threshold
    th_pf = cfg.section("la_sim")["th_pf"]
    by_node = {}
    for node, level, p_f in zip(table.column("node"), table.column("rate_level"),
                                table.column("p_f")):
        by_node.setdefault(node, []).append((level, p_f))
    for steps in by_node.values():
        for (prev_level, prev_pf), (level, _) in zip(steps, steps[1:]):
            if prev_pf > th_pf:
                assert level <= prev_level


def _replay_soundness(radio: dict[int, set[int]], state: zigbee.BroadcastState):
    covered = set()
    for _slot, node, transmitted in state.events:
        if transmitted:
            covered |= {node} | radio[node]
        else:
            assert radio[node] <= covered, node


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


def _run_cli(run: pins.Run, work_dir: Path) -> dict[str, str]:
    """The sha256 of every file the run writes through the CLI, by name."""
    out = work_dir / "out" / run.id
    config = pins.config_file(run, work_dir)
    assert cli.main([run.experiment, "--config", str(config), "--out", str(out)]) == 0, run.id
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("run", pins.RUNS, ids=[run.id for run in pins.RUNS])
def test_criterion_11_run_matches_pins(tmp_path, monkeypatch, run):
    """Each pinned run through the CLI writes its row's files.  A CSV with a
    golden is checked against it first: when a digest fails, the rtol check
    shows which cells moved."""
    monkeypatch.chdir(ROOT)
    digests = _run_cli(run, tmp_path)
    goldens = FIXTURES / "golden" / run.id
    if goldens.is_dir():
        for golden in goldens.iterdir():
            assert_matches_golden(tmp_path / "out" / run.id / golden.name, golden)
    assert digests == run.digests


def test_criterion_11_cli_outputs_reproducible(tmp_path, monkeypatch):
    """Every pinned run a second time, all in one process and last row first:
    each still writes its row's bytes, whatever ran before it."""
    monkeypatch.chdir(ROOT)
    for run in reversed(pins.RUNS):
        assert _run_cli(run, tmp_path) == run.digests, run.id
