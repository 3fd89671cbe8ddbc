import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from bansim import equalize, zigbee
from bansim.harness import cli
from bansim.harness.config import EXPERIMENTS, ConfigError, parse_config
from bansim.harness.experiments import run_experiment
from bansim.harness.svg import PlotSpec, emit_svg
from bansim.harness.table import ResultTable

ROOT = Path(__file__).resolve().parent.parent


def test_parse_config_sections_and_lists():
    cfg = parse_config(
        "[common]\nseed = 9\nout = somewhere\n"
        "[ber_sweep]\nebn0_db = 0, 5, 10\nscheme = QAM16\n",
        "ber_sweep",
    )
    assert cfg.seed == 9
    assert cfg.output_dir == "somewhere"
    assert cfg.section("ber_sweep")["ebn0_db"] == [0, 5, 10]
    assert len(cfg.config_hash) == 16


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="'not_an_experiment'"):
        parse_config("[common]\nseed = 1\n", "not_an_experiment")
    with pytest.raises(ConfigError, match="must set `seed`"):
        parse_config("[common]\nout = x\n", "ber_sweep")
    with pytest.raises(ConfigError, match="'broken line'"):
        parse_config("[common]\nseed = 1\nbroken line\n", "ber_sweep")


def test_result_table_csv_and_provenance():
    table = ResultTable({"a": [1, 2], "b": [0.5, 0.25]}, seed=4, config_hash="cafe")
    lines = table.to_csv().splitlines()
    assert lines[0].startswith("# bansim_version=")
    assert lines[1] == "# seed=4"
    assert lines[2] == "# config_hash=cafe"
    assert lines[3] == "a,b"
    assert lines[4] == "1,0.5"
    assert table.column("b") == [0.5, 0.25]
    assert table.rows == [(1, 0.5), (2, 0.25)]
    with pytest.raises(AttributeError):
        table.rows = []
    with pytest.raises(ValueError, match="'b': 1"):
        ResultTable({"a": [1, 2], "b": [0.5]})
    with pytest.raises(KeyError):
        table.column("missing")


def make_table():
    return ResultTable({"x": [0.0, 1.0], "y": [1.0, 10.0]})


def test_emit_svg_polyline_and_determinism():
    table = make_table()
    spec = PlotSpec("x", "y", title="demo")
    svg = emit_svg(table, spec)
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 1
    assert emit_svg(table, spec) == svg


def test_emit_svg_log_zero_error_names_location():
    table = ResultTable({"x": [0.0, 1.0], "y": [1.0, 0.0]})
    with pytest.raises(ValueError, match="'y' row 1"):
        emit_svg(table, PlotSpec("x", "y", log_y=True))


def test_emit_svg_missing_column():
    with pytest.raises(KeyError):
        emit_svg(make_table(), PlotSpec("x", "nope"))


# sha256 of emit_svg's bytes, recorded before PlotSpec.y became one column:
# rows spanning three decades, and one row, whose axes are flat
DECADES = [(0.0, 1.0), (1.5, 10.0), (3.0, 0.02), (4.0, 250.0)]
SVG_DIGESTS = [
    (DECADES, {"title": "demo"},
     "70ccfbee4f451f7be754d6012c15c0a83a17f31baabb0bd96a2efd18170a3e18"),
    (DECADES, {"log_y": True},
     "f626e5f118ebb27ba0dcb6798af08fee29723a1656bcf9f242b6b49f446f6669"),
    (DECADES, {"markers": True},
     "3f22f4a5c46974b8065dbc584cf6abff1fae68a7f9ec2d0069782335e8c97420"),
    (DECADES, {"title": "all three", "log_y": True, "markers": True},
     "b6af56f000851395255f5f3ca70f415946965d9f064b95e39dd71e08de3f1071"),
    (DECADES, {}, "b2ca3f354faf491f4ed2178103c05b6f3be519205cad089b80816774ace28bf2"),
    ([(2.0, 3.0)], {"markers": True},
     "906b759aceac172496976ab788f1e7d03443c6cc37617d37c6063f56a5f6610d"),
]


@pytest.mark.parametrize("rows,options,digest", SVG_DIGESTS)
def test_emit_svg_bytes_pinned(rows, options, digest):
    x, y = map(list, zip(*rows))
    table = ResultTable({"x": x, "y": y})
    svg = emit_svg(table, PlotSpec("x", "y", **options))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


# sha256 of every SVG the shipped configs write, recorded before emit_svg
# mapped and formatted whole columns at once; the CSVs have goldens
SHIPPED_SVGS = [
    ("ber_sweep", "ber_sweep.cfg", "ber_sweep.svg",
     "76df4fddbc9fa5ae555c6cefb4a54bdc86138da32df568752bcd04f9db7a4f4e"),
    ("doa_hist", "doa_hist.cfg", "doa_hist.svg",
     "6bfabbbab0358d95d7e7a559852c72e5ea1344d797d0881a7aadfecf5769be89"),
    ("cma_convergence", "cma_convergence_qam16.cfg", "cma_trace.svg",
     "0416cfe51e1ec86dab8bea7a18de42227a98f6ec847825a328510e4060d399f3"),
    ("cma_convergence", "cma_convergence_qam8.cfg", "cma_trace.svg",
     "446895801784d63b9cb42b38c96eedd1178e7872e6826d3f75b9706031c4dfc4"),
]


@pytest.mark.parametrize("experiment,config,svg,digest", SHIPPED_SVGS,
                         ids=[config for _, config, _, _ in SHIPPED_SVGS])
def test_shipped_svgs_pinned(tmp_path, monkeypatch, experiment, config, svg,
                             digest):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(ROOT / "configs" / config),
                     "--out", str(out)]) == 0
    assert hashlib.sha256((out / svg).read_bytes()).hexdigest() == digest


def test_run_experiment_unknown_section_errors():
    with pytest.raises(ConfigError):
        parse_config("[common]\nseed = 1\n[ber_sweep]\nebn0_db =\n", "ber_sweep")


def test_small_ber_sweep_structure():
    cfg = parse_config(
        "[common]\nseed = 2\n[ber_sweep]\nscheme = QAM16\n"
        "ebn0_db = 0, 5\nmax_bits = 40000\nmin_errors = 50\n",
        "ber_sweep",
    )
    [(stem, table, _plot)] = run_experiment(cfg)
    assert stem == "ber_sweep"
    assert list(table.columns) == ["ebn0_db", "ber", "bits"]
    bers = table.column("ber")
    assert bers[0] > bers[1] > 0


def test_ber_sweep_stops_short_of_a_partial_symbol(tmp_path):
    # max_bits 5 on QAM16: each point runs one 4-bit symbol, and the bit
    # left over, less than a symbol, ends it
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[common]\nseed = 1\n[ber_sweep]\nscheme = QAM16\nmax_bits = 5\n")
    out = tmp_path / "out"
    assert cli.main(["ber_sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in
                     (out / "ber_sweep.csv").read_text().splitlines()
                     if not line.startswith("#")]
    assert [row[header.index("bits")] for row in rows] == ["4"] * 4


def test_cma_two_iterations_write_two_rows(tmp_path):
    # a trace shorter than the delay search: delays whose aligned span is
    # empty are skipped, and each of the two outputs is scored
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[common]\nseed = 1\n[cma_convergence]\niterations = 2\nwindow = 1\n")
    out = tmp_path / "out"
    assert cli.main(["cma_convergence", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in
                     (out / "cma_trace.csv").read_text().splitlines()
                     if not line.startswith("#")]
    assert header == ["iteration", "mse"]
    assert [row[0] for row in rows] == ["0", "1"]
    assert all(np.isfinite(float(row[1])) for row in rows)


def test_cma_flat_trace_at_zero_mu():
    cfg = parse_config(
        "[common]\nseed = 3\n[cma_convergence]\nscheme = QAM16\nmu = 0.0\n"
        "iterations = 2000\nwindow = 200\n",
        "cma_convergence",
    )
    outputs = run_experiment(cfg)
    summary = dict(zip(outputs[1][1].columns, outputs[1][1].rows[0]))
    assert abs(summary["improvement_db"]) < 1.0


def test_cma_windows_may_meet_at_half():
    # window = iterations / 2 splits the trace in two; one more would overlap
    cfg = parse_config(
        "[common]\nseed = 3\n[cma_convergence]\niterations = 400\nwindow = 200\n",
        "cma_convergence",
    )
    (_, trace, _), (_, summary, _) = run_experiment(cfg)
    mse = trace.column("mse")
    initial, final = summary.rows[0][:2]
    assert initial == float(np.mean(mse[:200]))
    assert final == float(np.mean(mse[200:]))


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(
        "[common]\nseed = 1\n[ber_sweep]\nscheme = QAM16\n"
        "ebn0_db = 0, 5\nmax_bits = 20000\nmin_errors = 10\n"
    )
    out = tmp_path / "out"
    assert cli.main(["ber_sweep", "--config", str(good), "--out", str(out)]) == 0
    assert (out / "ber_sweep.csv").exists()
    assert (out / "ber_sweep.svg").exists()

    missing = tmp_path / "missing.cfg"
    assert cli.main(["ber_sweep", "--config", str(missing)]) == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("[common]\nno_seed = 1\n")
    assert cli.main(["ber_sweep", "--config", str(bad)]) == 2

    divergent = tmp_path / "divergent.cfg"
    divergent.write_text(
        "[common]\nseed = 1\n[cma_convergence]\nscheme = QAM16\n"
        "mu = 0.05\niterations = 3000\n"
    )
    assert cli.main(
        ["cma_convergence", "--config", str(divergent), "--out", str(out)]
    ) == 3


@pytest.mark.parametrize("case", ["out_is_file", "out_under_file", "csv_is_dir"])
def test_cli_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, case):
    cfg = tmp_path / "la.cfg"
    cfg.write_text("[common]\nseed = 1\n"
                   + ("out = afile/x\n" if case == "out_under_file" else "")
                   + "[la_sim]\nrounds = 1\n")
    (tmp_path / "afile").write_text("")
    (tmp_path / "out" / "la_trace.csv").mkdir(parents=True)
    out = {"out_is_file": ["--out", str(tmp_path / "afile")],
           "out_under_file": [], "csv_is_dir": ["--out", str(tmp_path / "out")]}[case]
    monkeypatch.chdir(tmp_path)  # `out = afile/x` is relative
    assert cli.main(["la_sim", "--config", str(cfg), *out]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("bansim: cannot write output: ")


def test_cli_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[common]\nseed = 1\n[doa_hist]\ncount = 2000\nbins = 21\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["doa_hist", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(
        ["doa_hist", "--config", str(cfg), "--seed", "2", "--out", str(out_b)]
    ) == 0
    a = (out_a / "doa_hist.csv").read_text()
    b = (out_b / "doa_hist.csv").read_text()
    assert a != b


def test_channel_stats_indoor_runs():
    cfg = parse_config(
        "[common]\nseed = 5\n[channel_stats]\nmodel = indoor_ban\n"
        "draws = 10\nnum_clusters = 3\n",
        "channel_stats",
    )
    [(_, table, _plot)] = run_experiment(cfg)
    assert len(table.rows) == 10
    assert all(c >= 2 for c in table.column("clusters"))


def test_bad_ban_section_is_config_error():
    for ban in ("delta_ns = -1", "bogus_key = 1"):
        with pytest.raises(ConfigError):
            cfg = parse_config(
                "[common]\nseed = 5\n[channel_stats]\nmodel = outdoor_ban\n"
                f"draws = 2\n[ban]\n{ban}\n",
                "channel_stats",
            )
            run_experiment(cfg)


def test_broadcast_requires_topology():
    cfg = parse_config("[common]\nseed = 5\n", "broadcast_sim")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_la_sim_length_mismatch():
    cfg = parse_config(
        "[common]\nseed = 5\n[la_sim]\ndistance_m = 1.0, 2.0\n"
        "tx_power_dbm = 0.0\n",
        "la_sim",
    )
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_float_format_stability():
    table = ResultTable({"v": [0.1234567890123]})
    assert table.to_csv().splitlines()[-1] == "0.123456789"


# one malformed setting per probe, each under `[common] seed = 1`; the last
# field is what the one-line message must name
MALFORMED = [
    ("ber_sweep", "[ber_sweep]\nscheme = QAM64", "scheme 'QAM64'"),
    ("ber_sweep", "[ber_sweep]\nebn0_db = nan", "ebn0_db"),
    ("ber_sweep", "[ber_sweep]\nmax_bits = 1000, 2000", "max_bits"),
    ("ber_sweep", "[ber_sweep]\nmax_bit = 1000", "max_bit"),
    ("ber_sweep", "[ber_sweep]\nmax_bits = 1.5e3", "max_bits"),
    ("ber_sweep", "[ber_sweep]\nscheme = QAM16\nmax_bits = 3", "max_bits 3"),
    ("cma_convergence", "[cma_convergence]\nnf = 12", "nf"),
    ("cma_convergence", "[cma_convergence]\nscheme = BPSK", "QAM8 or QAM16"),
    ("doa_hist", "[doa_hist]\nbins = 0", "bins"),
    ("doa_hist", "[doa_hist]\ncount = 0", "count"),
    ("mud_compare", "[mud_compare]\ntraining = 10", "training"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {example}\nsource = 99",
     "source 99"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {bad_topology}",
     "topology line 5"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\nnum_clusters = 0",
     "num_clusters"),
    ("channel_stats", "[ban]\ndelta_ns = 3, 4", "delta_ns"),
    ("channel_stats", "[channel_stats]\nmodel = rayleigh", "'rayleigh'"),
    # a ground delay that rounds to bin 0 would merge the two outdoor clusters
    ("channel_stats", "[ban]\ndelta_ns = 20", "tau_ground_ns"),
    ("channel_stats", "[bann]", "[bann]"),
    # decays whose rays underflow to zero taps: an error, never nan or
    # plausible slopes fitted around the missing rays
    ("channel_stats", "[ban]\ngamma_ray_db_per_ns = 1e200", "gamma_ray_db_per_ns"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "gamma_ray_db_per_ns = 700", "gamma_ray_db_per_ns"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "gamma_cluster_db_per_ns = 1e200", "gamma_cluster_db_per_ns"),
    ("channel_stats", "[ban]\nnum_bins_per_cluster = 0",
     "num_bins_per_cluster must be at least 1, got 0"),
    # a negative fading spread: an error, never the rows of no fading
    ("channel_stats", "[ban]\nsigma_ray_db = -3",
     "sigma_ray_db must be non-negative, got -3.0"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "sigma_cluster_db = -3", "sigma_cluster_db must be non-negative, got -3.0"),
    ("channel_stats", "[ban]\nshadowing_sigma_db = -3",
     "shadowing_sigma_db must be non-negative, got -3.0"),
    # each parameter-dataclass rejection names its key and the value it got
    ("channel_stats", "[ban]\ndelta_ns = 0",
     "channel_stats: delta_ns must be positive, got 0.0"),
    ("channel_stats", "[ban]\nmean_cluster_interarrival_ns = 0",
     "channel_stats: mean_cluster_interarrival_ns must be positive, got 0.0"),
    ("channel_stats", "[ban]\ntau_ground_ns = -1",
     "channel_stats: tau_ground_ns must be non-negative, got -1.0"),
    ("channel_stats", "[ban]\ngamma_cluster_db_per_ns = -0.5",
     "channel_stats: gamma_cluster_db_per_ns must be non-negative, got -0.5"),
    ("channel_stats", "[ban]\ngamma_ray_db_per_ns = -0.5",
     "channel_stats: gamma_ray_db_per_ns must be non-negative, got -0.5"),
    ("la_sim", "[la_sim]\nd0_m = 0", "la_sim: d0_m must be positive, got 0.0"),
    ("la_sim", "[la_sim]\nexponent = -3", "la_sim: exponent must be positive, got -3.0"),
    ("la_sim", "[la_sim]\nsigma_db = -1",
     "la_sim: sigma_db must be non-negative, got -1.0"),
    ("doa_hist", "[doa_hist]\na = 1.5", "doa_hist: a must be in (0, 1), got 1.5"),
    ("doa_hist", "[doa_hist]\nradius_m = 0",
     "doa_hist: radius_m must be positive, got 0.0"),
    ("doa_hist", "[doa_hist]\nbs_distance_m = 50",
     "doa_hist: bs_distance_m must be above radius_m 100.0, got 50.0"),
    ("ber_sweep", "seed = abc", "seed"),
    ("ber_sweep", "seed = 1.7", "seed"),
    # numpy's seeding takes no negative entropy
    ("ber_sweep", "seed = -1", "[common] seed:"),
    ("ber_sweep", "--seed -5", "--seed:"),
    # counts whose arrays need more than 2**50 bytes: no host allocates them
    ("mud_compare", "[mud_compare]\nsymbols = 1000000000000000",
     "mud_compare: allocation too large for memory"),
    ("cma_convergence", "[cma_convergence]\niterations = 1000000000000000",
     "cma_convergence: allocation too large for memory"),
    ("channel_stats", "[channel_stats]\ndraws = 1000000000000000",
     "channel_stats: allocation too large for memory"),
    ("mud_compare", "[mud_compare]\ntemplate1 = 0", "template1"),
    ("mud_compare", "[mud_compare]\ntemplate1 = 0, 0", "template1"),
    ("mud_compare", "[mud_compare]\nnb = -1", "nb"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {example}\nmax_backoff = -1",
     "max_backoff"),
    # a backoff range numpy's int64 draw cannot hold; 2**63 - 1 runs
    ("broadcast_sim",
     "[broadcast_sim]\ntopology = {example}\nmax_backoff = 100000000000000000000",
     "max_backoff 100000000000000000000 is above 2**63 - 1"),
    # arithmetic that overflows: an error, never nan rows or a traceback; a
    # Python float overflow names itself too, not as an errno tuple
    ("mud_compare", "[mud_compare]\ntemplate1 = 1e200", "mud_compare: overflow"),
    ("mud_compare", "[mud_compare]\ntemplate2 = 1e200", "mud_compare: overflow"),
    ("mud_compare", "[mud_compare]\nebn0_db = 1e200",
     "mud_compare: arithmetic overflow"),
    ("cma_convergence", "[cma_convergence]\nchannel = 1e200",
     "cma_convergence: overflow"),
    # a channel whose output power underflows is not an all-zero signal
    ("cma_convergence", "[cma_convergence]\nchannel = 1e-320",
     "cma_convergence: cannot normalize a signal whose power |x|**2 underflows"),
    # initial and final MSE windows that share samples
    ("cma_convergence", "[cma_convergence]\niterations = 100\nwindow = 1000",
     "[cma_convergence] window 1000 is more than half of iterations 100"),
    ("cma_convergence", "[cma_convergence]\niterations = 999\nwindow = 500",
     "[cma_convergence] window 500 is more than half of iterations 999"),
    ("ber_sweep", "[ber_sweep]\nebn0_db = 1e200", "ber_sweep: arithmetic overflow"),
    # an Eb/N0 that underflows to zero or a subnormal leaves no noise power
    ("ber_sweep", "[ber_sweep]\nebn0_db = -1e200",
     "ber_sweep: ebn0_db -1e+200 underflows"),
    ("ber_sweep", "[ber_sweep]\nebn0_db = -3100", "ber_sweep: ebn0_db -3100 underflows"),
    ("mud_compare", "[mud_compare]\nebn0_db = -1e200",
     "mud_compare: ebn0_db -1e+200 underflows"),
    ("la_sim", "[la_sim]\ntx_power_dbm = 1e200, 0", "la_sim: arithmetic overflow"),
    ("la_sim", "[la_sim]\ndistance_m = 1e-300", "la_sim: arithmetic overflow"),
    # received powers of 1e308 mW each, whose interference sum overflows
    ("la_sim", "[la_sim]\ndistance_m = 1.0, 1.0, 1.0\n"
     "tx_power_dbm = 3146.3, 3146.3, 3146.3",
     "la_sim: overflow encountered in accumulate"),
    ("mud_compare", "[mud_compare]\nridge = -1", "ridge"),
    # tree nodes the root cannot reach, and a radio node outside the tree
    ("broadcast_sim", "[broadcast_sim]\ntopology = {cycle_topology}",
     "node 2 is not reachable"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {foreign_topology}",
     "node 99 is not in [tree]"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {self_loop_topology}",
     "topology line 4"),
    # block addresses past 64 bits, whose Cskip power would take minutes
    ("broadcast_sim", "[broadcast_sim]\ntopology = {deep_topology}",
     "n_chl 4 and d_l 100000000000"),
    # a maximum depth below the root's
    ("broadcast_sim", "[broadcast_sim]\ntopology = {shallow_topology}",
     "node 0 exceeds maximum depth -1"),
    # counts the models take unchecked: the schema rejects them first
    ("la_sim", "[la_sim]\nwindow = 0", "[la_sim] window:"),
    ("la_sim", "[la_sim]\nwindow = -1", "[la_sim] window:"),
    ("la_sim", "[la_sim]\nrounds = 0", "[la_sim] rounds:"),
    # link settings the path loss and thresholds cannot take
    ("la_sim", "[la_sim]\ndistance_m = 0", "distance must be finite and positive"),
    ("la_sim", "[la_sim]\ndistance_m = -1", "distance must be finite and positive"),
    ("la_sim", "[la_sim]\ndistance_m = nan", "[la_sim] distance_m:"),
    ("la_sim", "[la_sim]\ntx_power_dbm = 0.0, nan", "[la_sim] tx_power_dbm:"),
    ("la_sim", "[la_sim]\nnoise_floor_dbm = nan", "[la_sim] noise_floor_dbm:"),
    ("la_sim", "[la_sim]\na0_db = inf", "[la_sim] a0_db:"),
    ("la_sim", "[la_sim]\nth_pf = 2",
     "la_sim: th_pf, the failure-probability threshold, must be in [0, 1], got 2.0"),
    ("mud_compare", "[mud_compare]\nns = 0", "[mud_compare] ns:"),
    ("mud_compare", "[mud_compare]\nnw = 0", "[mud_compare] nw:"),
    ("cma_convergence", "[cma_convergence]\nsamples_per_symbol = 0",
     "[cma_convergence] samples_per_symbol:"),
    ("cma_convergence", "[cma_convergence]\nchannel =",
     "[cma_convergence] channel has no value"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {example}\ntrials = 0",
     "[broadcast_sim] trials:"),
]


@pytest.mark.parametrize("experiment,body,names", MALFORMED,
                         ids=[f"{e}:{b.splitlines()[-1]}" for e, b, _ in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, experiment, body, names):
    bad_topology = tmp_path / "bad_topology.txt"
    bad_topology.write_text("[params]\nn_chl = 4\nd_l = 3\n[tree]\n0 1 2\n")
    cycle_topology = tmp_path / "cycle_topology.txt"
    cycle_topology.write_text("[tree]\n0 1\n0 4\n2 3\n3 2\n")
    foreign_topology = tmp_path / "foreign_topology.txt"
    foreign_topology.write_text("[tree]\n0 1\n[radio]\n0 99\n")
    self_loop_topology = tmp_path / "self_loop_topology.txt"
    self_loop_topology.write_text("[tree]\n0 1\n[radio]\n0 0\n")
    deep_topology = tmp_path / "deep_topology.txt"
    deep_topology.write_text("[params]\nn_chl = 4\nd_l = 100000000000\n"
                             "[tree]\n0 1\n1 2\n")
    shallow_topology = tmp_path / "shallow_topology.txt"
    shallow_topology.write_text("[params]\nd_l = -1\n[tree]\n0 1\n")
    body = body.format(example=ROOT / "configs" / "topology_example.txt",
                       bad_topology=bad_topology, cycle_topology=cycle_topology,
                       foreign_topology=foreign_topology,
                       self_loop_topology=self_loop_topology,
                       deep_topology=deep_topology, shallow_topology=shallow_topology)
    # a body of command-line flags overrides a valid config
    flags = body.split() if body.startswith("--") else []
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[common]\n" + (body if body.startswith("seed") else
                                    "seed = 1\n" if flags else
                                    f"seed = 1\n{body}") + "\n")
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(cfg), "--out", str(out), *flags]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("bansim: config error: ")
    assert names in line
    assert not out.exists()


@pytest.mark.parametrize("model", ["outdoor_ban", "indoor_ban"])
def test_single_bin_clusters_write_nan_slopes(tmp_path, model):
    # one ray per cluster leaves no slope to fit: a documented nan, exit 0
    cfg = tmp_path / "one_bin.cfg"
    cfg.write_text(f"[common]\nseed = 4\n[channel_stats]\nmodel = {model}\n"
                   "draws = 50\n[ban]\nnum_bins_per_cluster = 1\n")
    out = tmp_path / "out"
    assert cli.main(["channel_stats", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "channel_stats.csv").read_text().splitlines()[4:]
    assert len(rows) == 50
    assert all(row.split(",")[2] == "nan" for row in rows)


@pytest.mark.parametrize("nb", [0, 3])
def test_mud_compare_dfe_history_is_the_last_nb_training_symbols(monkeypatch, nb):
    seen = {}
    dfe_train, dfe_detect = equalize.dfe_train, equalize.dfe_detect

    def spy_train(received, training, *args):
        seen["training"] = training
        return dfe_train(received, training, *args)

    def spy_detect(received, w_ff, w_fb, history, *args):
        seen["history"] = history
        return dfe_detect(received, w_ff, w_fb, history, *args)

    monkeypatch.setattr(equalize, "dfe_train", spy_train)
    monkeypatch.setattr(equalize, "dfe_detect", spy_detect)
    run_experiment(parse_config("[common]\nseed = 1\n[mud_compare]\nsymbols = 200\n"
                                f"training = 100\nnb = {nb}\n", "mud_compare"))
    # newest first
    expected = seen["training"][::-1][:nb]
    assert seen["history"].size == nb
    assert seen["history"].tobytes() == expected.tobytes()


def test_mud_compare_silent_second_user_runs():
    cfg = parse_config("[common]\nseed = 1\n[mud_compare]\nsymbols = 200\n"
                       "training = 100\ntemplate2 = 0, 0\n", "mud_compare")
    [(_, table, _)] = run_experiment(cfg)
    assert sorted(table.column("receiver")) == ["dfe_mud", "linear_mud", "matched"]
    assert all(np.isfinite(table.column("mse")))


def test_benchmark_inputs_parse(tmp_path, monkeypatch):
    """The configs and topology the benchmark generates pass both parsers."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    experiments, topologies = set(), 0
    for workload in workloads.WORKLOADS:
        work_dir = tmp_path / workload
        work_dir.mkdir()
        for op in workloads.generate(workload, 1, str(work_dir)):
            cfg = parse_config(Path(op["config"]).read_text(), op["experiment"])
            experiments.add(cfg.experiment)
            topology = cfg.section(op["experiment"]).get("topology")
            if topology is not None:
                tree, _ = zigbee.parse_topology(Path(topology).read_text())
                assert len(tree) == workloads.TREE_NODES
                topologies += 1
    assert experiments == set(EXPERIMENTS) and topologies == 1


def test_benchmark_checks_pass(tmp_path, monkeypatch):
    """Every benchmark operation at seed 1 passes the benchmark's own output
    checks, which read the result tables row by row and by column name."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        work_dir = tmp_path / workload
        work_dir.mkdir()
        for op in workloads.generate(workload, 1, str(work_dir)):
            cfg = parse_config(Path(op["config"]).read_text(), op["experiment"])
            outputs = run_experiment(cfg)
            for _stem, table, plot in outputs:
                assert table.to_csv()
                if plot is not None:
                    assert emit_svg(table, plot)
            assert workloads.check_op(op, outputs) == [], op["name"]


def _shipped(experiment: str, name: str, counts: list[str]):
    return pytest.param(experiment, (ROOT / "configs" / name).read_text(), counts,
                        id=name)


# config runs under the benchmark's tracer and the meter counts each must
# record; no shipped config runs DSE-CMA, which the receivers workload does
TRACED_RUNS = [
    _shipped("ber_sweep", "ber_sweep.cfg", ["sigproc.add_awgn.symbols",
                                            "sigproc.demodulate.dist_bytes",
                                            "sigproc.nearest_labels.dist_bytes"]),
    _shipped("channel_stats", "channel_stats.cfg", ["channels.draws"]),
    pytest.param("channel_stats",
                 (ROOT / "tests" / "fixtures" / "channel_stats_indoor.cfg").read_text(),
                 ["channels.draws"], id="channel_stats_indoor.cfg"),
    _shipped("doa_hist", "doa_hist.cfg", ["channels.gbhds_doa_histogram.samples"]),
    _shipped("cma_convergence", "cma_convergence_qam8.cfg",
             ["kernels.cma_run.cma_iters"]),
    _shipped("cma_convergence", "cma_convergence_qam16.cfg",
             ["kernels.cma_run.cma_iters"]),
    pytest.param("cma_convergence",
                 "[common]\nseed = 3\n[cma_convergence]\nscheme = QAM8\n"
                 "variant = DSE_CMA\nmu = 0.00005\niterations = 2000\nwindow = 100\n",
                 ["kernels.dse_cma_run.dse_iters"], id="dse_cma_qam8"),
    _shipped("mud_compare", "mud_compare.cfg", ["equalize.linear_mud_detect.symbols",
                                                "kernels.dfe_detect_run.dfe_symbols",
                                                "sigproc.nearest_labels.dist_bytes"]),
    _shipped("la_sim", "la_sim.cfg", ["linkadapt.simulate_la.node_rounds"]),
    _shipped("broadcast_sim", "broadcast_sim.cfg",
             ["zigbee.self_pruning_broadcast.trials",
              "zigbee.self_pruning_broadcast.tx"]),
]


@pytest.mark.parametrize("experiment,text,counts", TRACED_RUNS)
def test_benchmark_tracer_binds(monkeypatch, experiment, text, counts):
    """Every function the benchmark's tracer wraps still binds its meter."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    cfg = parse_config(text, experiment)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_experiment(cfg)
    finally:
        tracer.uninstall()
    names = [span[tracing.NAME] for span in tracer.spans]
    folded = tracer.fold()
    counts_seen = folded["counts"]
    assert all(counts_seen.get(key, 0) > 0 for key in counts), counts_seen
    if experiment == "channel_stats":
        # one metered generator call per configured draw, however the run batches
        assert counts_seen["channels.draws"] == cfg.section("channel_stats")["draws"]
        assert folded["time"]["channels.draw"] > 0
    if experiment == "mud_compare":
        # the DFE solves through the shared helpers, not a second Wiener span
        assert names.count("equalize.wiener_solve") == 1
        assert names.count("equalize.estimate_correlations") == 1
