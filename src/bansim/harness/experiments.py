"""Experiment runners: each one turns a ScenarioConfig into result tables
and optional plots.  Runners return a list of (stem, table, plot_spec)
triples; the CLI writes ``<stem>.csv`` and, when a plot spec is present,
``<stem>.svg`` into the output directory.
"""

from __future__ import annotations

import numpy as np

from .. import channels, equalize, linkadapt, sigproc, zigbee
from .config import ConfigError, ScenarioConfig
from .svg import PlotSpec
from .table import ResultTable


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _table(cfg: ScenarioConfig, columns: list[str]) -> ResultTable:
    return ResultTable(columns, seed=cfg.seed, config_hash=cfg.config_hash)


def _ban_params(cfg: ScenarioConfig) -> channels.BanModelParams:
    sec = cfg.section("ban")
    kwargs = {}
    for key, value in sec.items():
        if key == "position":
            kwargs[key] = str(value)
        elif key == "num_bins_per_cluster":
            kwargs[key] = int(value)
        else:
            kwargs[key] = float(value)
    try:
        return channels.BanModelParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [ban] section: {exc}") from None


def run_ber_sweep(cfg: ScenarioConfig):
    sec = cfg.section("ber_sweep")
    scheme = sigproc.get_scheme(str(sec.get("scheme", "QAM16")))
    grid = [float(v) for v in _as_list(sec.get("ebn0_db", [0.0, 5.0, 10.0, 15.0]))]
    if not grid:
        raise ConfigError("empty Eb/N0 grid")
    max_bits = int(sec.get("max_bits", 10**6))
    min_errors = int(sec.get("min_errors", 100))
    chunk_bits = 100_000 - 100_000 % scheme.bits_per_symbol
    table = _table(cfg, ["ebn0_db", "ber", "bits"])
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(grid))
    for point_seed, ebn0 in zip(seeds, sorted(grid)):
        rng = np.random.default_rng(point_seed)
        errors = 0
        total = 0
        while total < max_bits and errors < min_errors:
            n = min(chunk_bits, max_bits - total)
            n -= n % scheme.bits_per_symbol
            if n == 0:
                break
            bits = rng.integers(0, 2, size=n, dtype=np.int8)
            tx = sigproc.modulate(bits, scheme)
            noisy = sigproc.add_awgn(tx, ebn0, scheme, rng.integers(2**63))
            rx = sigproc.demodulate(noisy, scheme)
            errors += int(np.sum(bits != rx))
            total += n
        table.append(ebn0, errors / total, total)
    finite = [r for r in table.rows if r[1] > 0]
    plot = None
    if len(finite) >= 2:
        plot = PlotSpec("ebn0_db", ["ber"], title=f"{scheme.kind} BER over AWGN",
                        log_y=all(r[1] > 0 for r in table.rows), markers=True)
    return [("ber_sweep", table, plot)]


def _first_cluster_slope(cir: channels.ChannelImpulseResponse) -> float:
    start = cir.cluster_starts[0]
    stop = cir.cluster_starts[1] if len(cir.cluster_starts) > 1 else cir.taps.size
    seg = cir.taps[start:stop]
    mask = np.abs(seg) > 0
    if mask.sum() < 2:
        return float("nan")
    delays = np.arange(seg.size)[mask] * cir.bin_size_ns
    amp_db = 20.0 * np.log10(np.abs(seg[mask]))
    slope = np.polyfit(delays, amp_db, 1)[0]
    return float(slope)


def run_channel_stats(cfg: ScenarioConfig):
    sec = cfg.section("channel_stats")
    model = str(sec.get("model", "outdoor_ban"))
    if model not in ("outdoor_ban", "indoor_ban"):
        raise ConfigError(f"unknown channel model {model!r}")
    draws = int(sec.get("draws", 1000))
    num_clusters = int(sec.get("num_clusters", 3))
    params = _ban_params(cfg)
    table = _table(cfg, ["draw", "clusters", "intra_slope_db_per_ns", "energy"])
    seeds = np.random.SeedSequence(cfg.seed).spawn(draws)
    for i, child in enumerate(seeds):
        if model == "outdoor_ban":
            cir = channels.gen_outdoor_ban(params, child)
        else:
            cir = channels.gen_indoor_ban(params, num_clusters, child)
        table.append(i, len(cir.cluster_starts), _first_cluster_slope(cir),
                     cir.energy)
    return [("channel_stats", table, None)]


def run_doa_hist(cfg: ScenarioConfig):
    sec = cfg.section("doa_hist")
    params = channels.GbhdsParams(
        a=float(sec.get("a", 0.5)),
        radius_m=float(sec.get("radius_m", 100.0)),
        bs_distance_m=float(sec.get("bs_distance_m", 1000.0)),
    )
    count = int(sec.get("count", 100_000))
    bins = int(sec.get("bins", 61))
    edges, masses = channels.gbhds_doa_histogram(params, count, bins, cfg.seed)
    centers = 0.5 * (edges[:-1] + edges[1:])
    table = _table(cfg, ["doa_rad", "mass"])
    for c, m in zip(centers, masses):
        table.append(float(c), float(m))
    plot = PlotSpec("doa_rad", ["mass"], title="GBHDS DOA histogram")
    return [("doa_hist", table, plot)]


def run_cma_convergence(cfg: ScenarioConfig):
    sec = cfg.section("cma_convergence")
    scheme = sigproc.get_scheme(str(sec.get("scheme", "QAM16")))
    if scheme.kind not in ("QAM8", "QAM16"):
        raise ConfigError("cma_convergence runs on QAM8 or QAM16")
    mu = float(sec.get("mu", 0.0006 if scheme.kind == "QAM8" else 0.0003))
    taps = [float(v) for v in _as_list(
        sec.get("channel", [0.227, 0.460, 0.688, 0.460, 0.227]))]
    # fractionally spaced by default: the reference 5-tap channel has a deep
    # spectral null at symbol spacing, so symbol-spaced CMA cannot open it
    stride = int(sec.get("samples_per_symbol", 3))
    nf = int(sec.get("nf", 13))
    iterations = int(sec.get("iterations", 20_000))
    window = int(sec.get("window", 500))
    variant = str(sec.get("variant", "CMA"))
    rng = np.random.default_rng(cfg.seed)
    n_sym = iterations + nf + len(taps) + 16
    bits = rng.integers(0, 2, size=n_sym * scheme.bits_per_symbol, dtype=np.int8)
    symbols = sigproc.modulate(bits, scheme)
    cir = channels.ChannelImpulseResponse(np.asarray(taps, complex), 1.0, [0])
    received = channels.apply_channel(symbols, cir, stride)
    r2 = equalize.dispersion_constant(scheme)
    eq = equalize.CmaEqualizer.center_spike(
        nf, mu, r2, variant=variant,
        dither_amplitude=r2 if variant == "DSE_CMA" else 0.0,
    )
    result = equalize.run_blind(received, eq, iterations, truth=symbols,
                                seed=rng.integers(2**63), stride=stride,
                                normalize=True)
    table = _table(cfg, ["iteration", "mse"])
    for i, v in enumerate(result.trace):
        table.append(i, float(v))
    initial = float(np.mean(result.trace[:window]))
    final = float(np.mean(result.trace[-window:]))
    summary = _table(cfg, ["initial_mse", "final_mse", "improvement_db", "delay"])
    impr = 10.0 * np.log10(initial / final) if final > 0 else float("inf")
    summary.append(initial, final, float(impr), result.delay)
    plot = PlotSpec("iteration", ["mse"],
                    title=f"{variant} convergence, {scheme.kind}, mu={mu:g}",
                    log_y=bool(np.all(result.trace > 0)))
    return [("cma_trace", table, plot), ("cma_summary", summary, None)]


def _default_mud_scene(cfg: ScenarioConfig):
    sec = cfg.section("mud_compare")
    scheme = sigproc.get_scheme(str(sec.get("scheme", "OQPSK")))
    ebn0 = float(sec.get("ebn0_db", 15.0))
    n_sym = int(sec.get("symbols", 100_000))
    n_train = int(sec.get("training", 2_000))
    ns = int(sec.get("ns", 2))
    tpl1 = [float(v) for v in _as_list(sec.get("template1", [1.0, 0.5, 0.3]))]
    tpl2 = [float(v) for v in _as_list(sec.get("template2", [0.6, 0.9, 0.2]))]
    rng = np.random.default_rng(cfg.seed)
    streams = []
    for _ in range(2):
        bits = rng.integers(0, 2, size=(n_train + n_sym) * scheme.bits_per_symbol,
                            dtype=np.int8)
        streams.append(sigproc.modulate(bits, scheme))
    scene = equalize.MultiuserScene(streams, [np.asarray(tpl1, complex),
                                              np.asarray(tpl2, complex)],
                                    ns, ebn0, scheme)
    return scene, n_train, n_sym, rng


def run_mud_compare(cfg: ScenarioConfig):
    sec = cfg.section("mud_compare")
    nw = int(sec.get("nw", 6))
    nb = int(sec.get("nb", 3))
    ridge = float(sec.get("ridge", 1e-9))
    scene, n_train, n_sym, rng = _default_mud_scene(cfg)
    scheme = scene.scheme
    ns = scene.samples_per_symbol
    signal = equalize.synth_multiuser(scene, rng.integers(2**63))
    truth = scene.symbols_per_user[0]
    train, payload = truth[:n_train], truth[n_train:]
    payload_rx = signal.composite[n_train * ns :]

    results = []
    # matched filter: taps are the conjugated user-1 template
    tpl = scene.templates[0]
    w_mf = np.conj(tpl) / np.sum(np.abs(tpl) ** 2)
    mf = equalize.WienerEqualizer(w_mf, np.eye(tpl.size), w_mf)
    rep = equalize.linear_mud_detect(payload_rx, mf, scheme, n_sym, ns)
    results.append(("matched", rep, w_mf.size))

    gamma_rr, gamma_ar = equalize.estimate_correlations(
        signal.composite, train, nw, ns)
    ridge_abs = ridge * np.trace(gamma_rr).real / nw
    weq = equalize.wiener_solve(gamma_rr, gamma_ar, ridge_abs)
    rep = equalize.linear_mud_detect(payload_rx, weq, scheme, n_sym, ns)
    results.append(("linear_mud", rep, nw))

    dfe = equalize.dfe_train(signal.composite, train, nw, nb, ridge_abs, ns)
    # warm-start the feedback history with the tail of the training block
    dfe.decision_history = np.asarray(train[-nb:][::-1], dtype=complex)
    rep = equalize.dfe_detect(payload_rx, dfe, scheme, n_sym, ns)
    results.append(("dfe_mud", rep, nw + nb))

    table = _table(cfg, ["receiver", "ser", "mse"])
    rows = []
    for name, rep, _ in results:
        decided = rep.symbols[:n_sym]
        ser = float(np.mean(decided != payload[: decided.size]))
        mse = float(np.mean(np.abs(rep.soft[:n_sym] - payload[: decided.size]) ** 2))
        rows.append((name, ser, mse))
    for name, ser, mse in sorted(rows, key=lambda r: r[1]):
        table.append(name, ser, mse)
    return [("mud_compare", table, None)]


def run_la_sim(cfg: ScenarioConfig):
    sec = cfg.section("la_sim")
    rounds = int(sec.get("rounds", 50))
    distances = [float(v) for v in _as_list(sec.get("distance_m", [1.0, 3.0]))]
    tx_powers = [float(v) for v in _as_list(
        sec.get("tx_power_dbm", [0.0] * len(distances)))]
    if len(tx_powers) != len(distances):
        raise ConfigError("tx_power_dbm and distance_m must have equal length")
    try:
        pl = channels.PathLossParams(
            a0_db=float(sec.get("a0_db", 35.2)),
            d0_m=float(sec.get("d0_m", 0.1)),
            exponent=float(sec.get("exponent", 3.11)),
            sigma_db=float(sec.get("sigma_db", 0.0)),
        )
        thresholds = linkadapt.LaThresholds(
            th_snr_db=float(sec.get("th_snr_db", 15.0)),
            th_pf=float(sec.get("th_pf", 0.1)),
            p_rmin_dbm=float(sec.get("p_rmin_dbm", -85.0)),
            ci_min_db=tuple(float(v) for v in _as_list(
                sec.get("ci_min_db", [-5.0, 0.0, 5.0, 10.0]))),
        )
        nodes = [linkadapt.LaNode(i, p, d)
                 for i, (p, d) in enumerate(zip(tx_powers, distances))]
        trace = linkadapt.simulate_la(
            nodes, rounds, pl, thresholds, cfg.seed,
            window=int(sec.get("window", linkadapt.DEFAULT_FAILURE_WINDOW)),
            noise_floor_dbm=float(sec.get("noise_floor_dbm",
                                          linkadapt.DEFAULT_NOISE_FLOOR_DBM)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [la_sim] section: {exc}") from None
    table = _table(cfg, ["round", "node", "rate_level", "snr_db", "p_f", "received"])
    for row in trace:
        table.append(row.round, row.node, row.rate_level,
                     float(round(row.snr_db, 6)), float(round(row.p_f, 6)),
                     row.received)
    return [("la_trace", table, None)]


def run_broadcast_sim(cfg: ScenarioConfig):
    sec = cfg.section("broadcast_sim")
    topo_path = sec.get("topology")
    if topo_path is None:
        raise ConfigError("broadcast_sim needs a `topology` file path")
    try:
        with open(str(topo_path)) as fh:
            tree, radio = zigbee.parse_topology(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read topology file: {exc}") from None
    source = int(sec.get("source", 0))
    trials = int(sec.get("trials", 100))
    max_backoff = int(sec.get("max_backoff", 7))
    summary = zigbee.broadcast_compare(tree, radio, source, trials, cfg.seed,
                                       max_backoff)
    table = _table(cfg, ["strategy", "mean_rebroadcasts", "coverage",
                         "forward_set_size"])
    table.append("self_pruning", summary.mean_self_pruning_rebroadcasts,
                 summary.self_pruning_coverage, float("nan"))
    table.append("oos", float(summary.oos_rebroadcasts), summary.oos_coverage,
                 float(summary.oos_forward_set_size))
    return [("broadcast_compare", table, None)]


RUNNERS = {
    "ber_sweep": run_ber_sweep,
    "channel_stats": run_channel_stats,
    "doa_hist": run_doa_hist,
    "cma_convergence": run_cma_convergence,
    "mud_compare": run_mud_compare,
    "la_sim": run_la_sim,
    "broadcast_sim": run_broadcast_sim,
}


def run_experiment(cfg: ScenarioConfig):
    try:
        runner = RUNNERS[cfg.experiment]
    except KeyError:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}") from None
    return runner(cfg)
