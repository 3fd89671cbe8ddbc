"""Experiment runners: each one turns a ScenarioConfig into result tables
and optional plots.  Runners return a list of (stem, table, plot_spec)
triples; the CLI writes ``<stem>.csv`` and, when a plot spec is present,
``<stem>.svg`` into the output directory.

Only the runners turn the config seed into streams; the models take Generators.
A runner checks the rules that read two settings, before it allocates or
seeds anything; the schema has checked each setting alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import channels, equalize, linkadapt, seeding, sigproc, zigbee
from .config import ConfigError, ScenarioConfig
from .svg import PlotSpec
from .table import ResultTable


def _table(cfg: ScenarioConfig, **columns: list) -> ResultTable:
    return ResultTable(columns, seed=cfg.seed, config_hash=cfg.config_hash)


def _child(rng: np.random.Generator) -> np.random.Generator:
    """A Generator seeded by one draw of `rng`."""
    return np.random.default_rng(rng.integers(2**63))


def _params(cls, sec: dict):
    """A parameter dataclass from the section keys named after its fields."""
    return cls(**{f.name: sec[f.name] for f in dataclasses.fields(cls)})


def run_ber_sweep(cfg: ScenarioConfig):
    sec = cfg.section("ber_sweep")
    scheme = sigproc.SCHEMES[sec["scheme"]]
    grid = sec["ebn0_db"]
    max_bits, min_errors = sec["max_bits"], sec["min_errors"]
    if max_bits < scheme.bits_per_symbol:
        raise ValueError(f"max_bits {max_bits} is below one {scheme.kind} symbol")
    # whole symbols only: every chunk below is then a positive whole number
    max_bits -= max_bits % scheme.bits_per_symbol
    chunk_bits = 100_000 - 100_000 % scheme.bits_per_symbol
    ebn0_db, ber, bits_run = sorted(grid), [], []
    # point i draws from SeedSequence(seed).spawn(len(grid))[i]
    for (rng,), ebn0 in zip(seeding.child_streams(cfg.seed, len(grid), [()]), ebn0_db):
        errors = total = 0
        while total < max_bits and errors < min_errors:
            n = min(chunk_bits, max_bits - total)
            bits = rng.integers(0, 2, size=n, dtype=np.int8)
            tx = sigproc.modulate(bits, scheme)
            noisy = sigproc.add_awgn(tx, ebn0, scheme, _child(rng))
            rx = sigproc.demodulate(noisy, scheme)
            errors += int(np.count_nonzero(bits != rx))
            total += n
        ber.append(errors / total)
        bits_run.append(total)
    table = _table(cfg, ebn0_db=ebn0_db, ber=ber, bits=bits_run)
    plot = None
    if sum(b > 0 for b in ber) >= 2:
        plot = PlotSpec("ebn0_db", "ber", title=f"{scheme.kind} BER over AWGN",
                        log_y=all(b > 0 for b in ber), markers=True)
    return [("ber_sweep", table, plot)]


def _first_cluster_slopes(mag: np.ndarray, bin_size_ns: float) -> np.ndarray:
    """Least-squares dB-per-ns slope of each row of a (draws, bins) magnitude
    array over its nonzero cells, against delay from the row start; nan where
    fewer than two cells are nonzero.  All rows are fitted at once."""
    mask = mag > 0
    count = mask.sum(axis=1)
    delay = np.where(mask, np.arange(mag.shape[1]) * bin_size_ns, 0.0)
    amp_db = np.zeros_like(mag)
    amp_db[mask] = 20.0 * np.log10(mag[mask])
    # centred sums: masked cells stay exactly zero; a row of fewer than two
    # taps gets no division, so it raises no floating-point flag
    n = np.maximum(count, 1)[:, None]
    dx = np.where(mask, delay - delay.sum(axis=1, keepdims=True) / n, 0.0)
    dy = np.where(mask, amp_db - amp_db.sum(axis=1, keepdims=True) / n, 0.0)
    fit = count >= 2
    slopes = np.full(mag.shape[0], np.nan)
    slopes[fit] = (dx[fit] * dy[fit]).sum(axis=1) / (dx[fit] ** 2).sum(axis=1)
    return slopes


# spawn-key tails of a draw's Generators: draw i is SeedSequence(seed).spawn(
# draws)[i], its children (i, 0) and (i, 1) seed the body and ground
# clusters, and indoors (i, 0) spawns body and ground again and (i, 1) seeds
# the reflections; seeding.child_streams builds the Generator of each key
_STREAM_TAILS = {"outdoor_ban": [(0,), (1,)], "indoor_ban": [(0, 0), (0, 1), (1,)]}


def run_channel_stats(cfg: ScenarioConfig):
    sec = cfg.section("channel_stats")
    model = sec["model"]
    draws, num_clusters = sec["draws"], sec["num_clusters"]
    params = _params(channels.BanModelParams, cfg.section("ban"))
    ground = params.tau_ground_ns / params.delta_ns
    # checked before it is rounded, which an infinite ratio cannot be
    if ground > channels.MAX_TAPS - params.num_bins_per_cluster:
        raise ValueError(f"tau_ground_ns {params.tau_ground_ns:g} at delta_ns "
                         f"{params.delta_ns:g} starts the ground cluster at bin "
                         f"{ground:g}: with num_bins_per_cluster "
                         f"{params.num_bins_per_cluster} its taps pass the "
                         f"{channels.MAX_TAPS} numpy can allocate")
    if round(ground) == 0:
        raise ValueError(f"tau_ground_ns {params.tau_ground_ns:g} rounds to bin 0 at "
                         f"delta_ns {params.delta_ns:g}: the ground cluster would "
                         "merge into the body cluster")
    clusters, energies = [], []
    # allocated before any seeding: a draws count too large for memory fails here
    first_cluster = np.zeros((draws, params.num_bins_per_cluster))
    draw_streams = seeding.child_streams(cfg.seed, draws, _STREAM_TAILS[model])
    for i, streams in enumerate(draw_streams):
        # one call per draw, through the module attribute: the benchmark's
        # tracer meters draws on exactly these calls
        if model == "outdoor_ban":
            taps, starts = channels.gen_outdoor_ban(params, streams)
        else:
            taps, starts = channels.gen_indoor_ban(params, num_clusters, streams)
        clusters.append(len(starts))
        # the first cluster starts at bin 0 and its rays end at the second
        # cluster's start (the ground's, or an earlier reflection's) or after
        # its bins
        mag = np.abs(taps)
        rays = min(params.num_bins_per_cluster, starts[1])
        first_cluster[i, :rays] = mag[:rays]
        energies.append(float((mag ** 2).sum()))
    slopes = _first_cluster_slopes(first_cluster, params.delta_ns)
    table = _table(cfg, draw=list(range(draws)), clusters=clusters,
                   intra_slope_db_per_ns=slopes.tolist(), energy=energies)
    return [("channel_stats", table, None)]


def run_doa_hist(cfg: ScenarioConfig):
    sec = cfg.section("doa_hist")
    params = _params(channels.GbhdsParams, sec)
    # the base station lies outside the scatterer disc
    if params.bs_distance_m <= params.radius_m:
        raise ValueError(f"bs_distance_m must be above radius_m {params.radius_m!r}, "
                         f"got {params.bs_distance_m!r}")
    # the histogram's edges: the DOA range splits into bins of positive width
    lim = float(np.arcsin(params.radius_m / params.bs_distance_m))
    edges = np.linspace(-lim, lim, sec["bins"] + 1)
    if not (np.diff(edges) > 0).all():
        raise ValueError(f"radius_m {params.radius_m!r} over bs_distance_m "
                         f"{params.bs_distance_m!r} leaves a DOA half-range of {lim!r} rad, "
                         f"too narrow to split into bins {sec['bins']} of positive width")
    # one stream holds all count radius uniforms, then all count angle
    # uniforms; a uniform double takes one output, so the angles start count in
    masses = channels.gbhds_doa_histogram(
        params, sec["count"], edges, np.random.default_rng(cfg.seed),
        np.random.Generator(np.random.PCG64(cfg.seed).advance(sec["count"])))
    centers = 0.5 * (edges[:-1] + edges[1:])
    table = _table(cfg, doa_rad=centers.tolist(), mass=masses.tolist())
    plot = PlotSpec("doa_rad", "mass", title="GBHDS DOA histogram")
    return [("doa_hist", table, plot)]


def run_cma_convergence(cfg: ScenarioConfig):
    sec = cfg.section("cma_convergence")
    scheme, variant = sigproc.SCHEMES[sec["scheme"]], sec["variant"]
    mu, taps, stride = sec["mu"], sec["channel"], sec["samples_per_symbol"]
    nf, iterations, window = sec["nf"], sec["iterations"], sec["window"]
    if 2 * window > iterations:
        raise ValueError(f"window {window} is more than half of iterations "
                         f"{iterations}: the initial and final MSE windows "
                         "would overlap")
    rng = np.random.default_rng(cfg.seed)
    n_sym = iterations + nf + len(taps) + 16
    bits = rng.integers(0, 2, size=n_sym * scheme.bits_per_symbol, dtype=np.int8)
    symbols = sigproc.modulate(bits, scheme)
    received = channels.apply_channel(symbols, np.asarray(taps, complex), stride)
    trace, delay = equalize.run_blind(
        received, nf, mu, equalize.dispersion_constant(scheme), variant,
        iterations, truth=symbols, rng=_child(rng), stride=stride)
    table = _table(cfg, iteration=list(range(trace.size)), mse=trace.tolist())
    initial = float(np.mean(trace[:window]))
    final = float(np.mean(trace[-window:]))
    impr = 10.0 * np.log10(initial / final) if final > 0 else float("inf")
    summary = _table(cfg, initial_mse=[initial], final_mse=[final],
                     improvement_db=[float(impr)], delay=[delay])
    plot = PlotSpec("iteration", "mse",
                    title=f"{variant} convergence, {scheme.kind}, mu={mu:g}",
                    log_y=bool(np.all(trace > 0)))
    return [("cma_trace", table, plot), ("cma_summary", summary, None)]


def run_mud_compare(cfg: ScenarioConfig):
    sec = cfg.section("mud_compare")
    scheme = sigproc.SCHEMES[sec["scheme"]]
    n_sym, n_train, ns = sec["symbols"], sec["training"], sec["ns"]
    nw, nb, ridge = sec["nw"], sec["nb"], sec["ridge"]
    rng = np.random.default_rng(cfg.seed)
    streams = []
    for _ in range(2):
        bits = rng.integers(0, 2, size=(n_train + n_sym) * scheme.bits_per_symbol,
                            dtype=np.int8)
        streams.append(sigproc.modulate(bits, scheme))
    templates = [np.asarray(sec[key], complex) for key in ("template1", "template2")]
    # matched filter: taps are the conjugated user-1 template
    tpl = templates[0]
    energy = np.sum(np.abs(tpl) ** 2)
    if energy == 0:
        if tpl.any():
            raise ValueError("template1's energy sum |t|**2 underflows to zero: "
                             "the matched filter cannot divide by it")
        raise ValueError("template1 has zero energy: the desired user needs a "
                         "nonzero template")
    w_mf = np.conj(tpl) / energy
    composite = equalize.synth_multiuser(
        streams, templates, ns, sigproc.noise_sigma(sec["ebn0_db"], scheme),
        _child(rng))
    truth = streams[0]
    train, payload = truth[:n_train], truth[n_train:]
    payload_rx = composite[n_train * ns :]

    gamma_rr, gamma_ar = equalize.estimate_correlations(composite, train, nw, ns)
    ridge_abs = ridge * np.trace(gamma_rr).real / nw
    w_lin = equalize.wiener_solve(gamma_rr, gamma_ar, ridge_abs)
    w_ff, w_fb = equalize.dfe_train(composite, train, nw, nb, ridge_abs, ns)
    results = [(name, equalize.linear_mud_detect(payload_rx, taps, scheme, n_sym, ns))
               for name, taps in (("matched", w_mf), ("linear_mud", w_lin))]
    # warm-start the feedback history with the tail of the training block
    results.append(("dfe_mud", equalize.dfe_detect(
        payload_rx, w_ff, w_fb, train[n_train - nb:][::-1], scheme, n_sym, ns)))

    rows = []
    for name, (soft, decided) in results:
        ser = float(np.mean(decided != payload))
        mse = float(np.mean(np.abs(soft - payload) ** 2))
        rows.append((name, ser, mse))
    receiver, ser, mse = map(list, zip(*sorted(rows, key=lambda r: r[1])))
    table = _table(cfg, receiver=receiver, ser=ser, mse=mse)
    return [("mud_compare", table, None)]


def run_la_sim(cfg: ScenarioConfig):
    sec = cfg.section("la_sim")
    distances, tx_powers = sec["distance_m"], sec["tx_power_dbm"]
    if len(tx_powers) != len(distances):
        raise ValueError("tx_power_dbm and distance_m must have equal length")
    levels, snr_db, p_f, received = linkadapt.simulate_la(
        list(zip(tx_powers, distances)), sec["rounds"],
        _params(channels.PathLossParams, sec), _params(linkadapt.LaThresholds, sec),
        np.random.default_rng(cfg.seed), sec["window"], sec["noise_floor_dbm"],
    )
    rounds, n = levels.shape
    table = _table(
        cfg, round=np.repeat(np.arange(rounds), n).tolist(),
        node=list(range(n)) * rounds, rate_level=levels.ravel().tolist(),
        # Python floats and Python's round: np.round rounds differently
        snr_db=[round(x, 6) for x in snr_db.ravel().tolist()],
        p_f=[round(x, 6) for x in p_f.ravel().tolist()],
        received=received.ravel().astype(int).tolist())
    return [("la_trace", table, None)]


def run_broadcast_sim(cfg: ScenarioConfig):
    sec = cfg.section("broadcast_sim")
    with open(sec["topology"], encoding="utf-8-sig") as fh:
        tree, radio = zigbee.parse_topology(fh.read())
    if sec["source"] not in tree:
        raise ValueError(f"source {sec['source']} not in tree")
    # trial i draws from SeedSequence(seed).spawn(trials)[i], a Generator
    # built only when the trial runs, so a large `trials` holds no seed list
    trials = seeding.child_streams(cfg.seed, sec["trials"], [()])
    sp_mean, sp_coverage, oos_tx, oos_coverage = zigbee.broadcast_compare(
        tree, radio, sec["source"], (rng for (rng,) in trials), sec["max_backoff"])
    table = _table(cfg, strategy=["self_pruning", "oos"],
                   mean_rebroadcasts=[sp_mean, float(oos_tx)],
                   coverage=[sp_coverage, oos_coverage],
                   forward_set_size=[float("nan"), float(oos_tx + 1)])
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
    runner = RUNNERS[cfg.experiment]
    try:
        # a float that overflows or turns NaN raises here instead of
        # reaching the output as nan/inf rows
        with np.errstate(over="raise", invalid="raise"):
            return runner(cfg)
    except MemoryError as exc:
        # numpy's error names the allocation: its size, shape and dtype
        raise ConfigError(f"{cfg.experiment}: allocation too large for memory "
                          f"({str(exc) or 'size not reported'})") from exc
    except OverflowError as exc:
        # Python's float ** raises OverflowError(errno, text): keep the text
        raise ConfigError(
            f"{cfg.experiment}: arithmetic overflow ({exc.args[-1]})") from exc
    except (OSError, ValueError, ArithmeticError) as exc:
        # the runners and models reject impossible settings with ValueError
        # (numpy's LinAlgError included); an unreadable input file is a
        # config error too, and so is a setting whose arithmetic overflows
        raise ConfigError(f"{cfg.experiment}: {exc}") from exc
