import hashlib
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bansim import equalize, zigbee
from bansim.harness import cli
from bansim.harness.config import (COMMON, EXPERIMENTS, SCHEMAS, ConfigError, Kind,
                                   parse_config)
from bansim.harness.experiments import run_experiment
from bansim.harness.svg import PlotSpec, emit_svg
from bansim.harness.table import ResultTable
import pins
import readme

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
    with pytest.raises(ConfigError, match="must set `seed`"):
        parse_config("[common]\nout = x\n", "ber_sweep")
    with pytest.raises(ConfigError, match="'broken line'"):
        parse_config("[common]\nseed = 1\nbroken line\n", "ber_sweep")


def test_hash_inside_a_value_is_text(tmp_path):
    # a comment is a whole line whose first non-blank character is '#', so a
    # path may hold one: the run writes into runs#2, not into runs
    cfg = tmp_path / "hash.cfg"
    cfg.write_text(f"# la_sim run\n[common]\n  # indented\nseed = 1\n"
                   f"out = {tmp_path}/runs#2\n[la_sim]\nrounds = 3\n")
    assert cli.main(["la_sim", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hash.cfg", "runs#2"]
    assert (tmp_path / "runs#2" / "la_trace.csv").is_file()
    cfg = parse_config("[common]\nseed = 1\n[broadcast_sim]\ntopology = topo#1.txt\n",
                       "broadcast_sim")
    assert cfg.section("broadcast_sim")["topology"] == "topo#1.txt"


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
        ResultTable({"a": [1, 2], "b": [0.5]}, seed=0, config_hash="")
    with pytest.raises(KeyError):
        table.column("missing")


def make_table():
    return ResultTable({"x": [0.0, 1.0], "y": [1.0, 10.0]}, seed=0, config_hash="")


def test_emit_svg_polyline_and_determinism():
    table = make_table()
    spec = PlotSpec("x", "y", title="demo")
    svg = emit_svg(table, spec)
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 1
    assert emit_svg(table, spec) == svg


def test_emit_svg_log_zero_error_names_location():
    table = ResultTable({"x": [0.0, 1.0], "y": [1.0, 0.0]}, seed=0, config_hash="")
    with pytest.raises(ValueError, match="'y' row 1"):
        emit_svg(table, PlotSpec("x", "y", title="", log_y=True))


def test_emit_svg_missing_column():
    with pytest.raises(KeyError):
        emit_svg(make_table(), PlotSpec("x", "nope", title=""))


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
# recorded before emit_svg read each column into one array: series longer
# than the plot is wide (528 pixel columns) that the M4 thinning skips, for
# a NaN y after the first row or at it (Python's min and max skip a NaN
# unless it comes first) and for an unsorted x; an int x, thinned; and
# zeros of both signs, of which Python's min and max keep the first
_LONG = 600
_WAVE = [1.0 + 0.5 * math.sin(0.05 * i) for i in range(_LONG)]
SVG_DIGESTS += [
    ([(float(i), math.nan if i == 300 else v) for i, v in enumerate(_WAVE)], {},
     "0458d6ba240c736a456c0af758b4cfc593c62e76353223187c9325de1eaf4fd8"),
    ([(float(i), math.nan if i == 0 else v) for i, v in enumerate(_WAVE)],
     {"markers": True},
     "f46de02a0a1d23765db8ef5a3e06877baef35e3d3eb250b240ccf1f912d741e1"),
    ([(float(i * 37 % _LONG), math.cos(0.01 * i)) for i in range(_LONG)], {},
     "8d4b4842b7ec3345b639674fbce088d2bb4ef768b6bb20e2af8bb5f477ad6b59"),
    ([(2**60 + 3 * i, 10.0 ** (-(i % 50) / 10)) for i in range(_LONG)], {"log_y": True},
     "04d806b10e6ed8fa0afe528c2364032c3bc571e4d38542ef92efe2bb0c8c8426"),
    ([(0.0, -0.0), (-0.0, 0.0), (1.0, 1.0), (2.0, -0.0)], {"markers": True},
     "173ee8472a8fe44938b320a8664377e030a6ecfe2f29bb1dd006ad3b10401400"),
]


@pytest.mark.parametrize("rows,options,digest", SVG_DIGESTS)
def test_emit_svg_bytes_pinned(rows, options, digest):
    x, y = map(list, zip(*rows))
    table = ResultTable({"x": x, "y": y}, seed=0, config_hash="")
    svg = emit_svg(table, PlotSpec("x", "y", **{"title": "", **options}))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_every_golden_csv_is_pinned():
    # a golden directory is named after its row, and holds that row's CSVs
    goldens = ROOT / "tests" / "fixtures" / "golden"
    assert sorted(p.relative_to(goldens).as_posix()
                  for p in goldens.glob("*/*.csv")) == sorted(
        f"{run.id}/{name}" for run in pins.RUNS if (goldens / run.id).is_dir()
        for name in run.digests if name.endswith(".csv"))


# the rows of the shipped configs that draw a plot
SHIPPED_SVGS = [run for run in pins.RUNS
                if isinstance(run.config, Path) and run.config.parent.name == "configs"
                and any(name.endswith(".svg") for name in run.digests)]


@pytest.mark.parametrize("run", SHIPPED_SVGS,
                         ids=[run.config.name for run in SHIPPED_SVGS])
def test_shipped_svgs_pinned(tmp_path, monkeypatch, run):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert cli.main([run.experiment, "--config", str(run.config), "--out", str(out)]) == 0
    for name, digest in run.digests.items():
        if name.endswith(".svg"):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_cma_svg_draws_the_trace_extremes(tmp_path, monkeypatch):
    # the log-y polyline of a 20 000-row trace, against the CSV of the same run:
    # at most four points per pixel column (529, from x = 56 to 584), and
    # among them the first and last rows and the lowest and highest MSE
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert cli.main(["cma_convergence", "--config",
                     str(ROOT / "configs" / "cma_convergence_qam16.cfg"),
                     "--out", str(out)]) == 0
    lines = (out / "cma_trace.csv").read_text().splitlines()
    assert lines[3] == "iteration,mse"
    rows = [line.split(",") for line in lines[4:]]
    it = [int(i) for i, _ in rows]
    log_mse = [math.log10(float(m)) for _, m in rows]
    assert len(rows) == 20_000
    [pts] = re.findall(r'<polyline points="([^"]*)"', (out / "cma_trace.svg").read_text())
    drawn = [tuple(map(float, p.split(","))) for p in pts.split()]
    assert 2 * 529 <= len(drawn) <= 4 * 529

    lo, hi = min(log_mse), max(log_mse)

    def pixel(i):
        x = 56 + (it[i] - it[0]) / (it[-1] - it[0]) * 528
        return x, 420 - 56 - (log_mse[i] - lo) / (hi - lo) * 308

    # the CSV holds 10 digits, so a pixel may round the other way
    def near(i):
        return pytest.approx(pixel(i), abs=0.01)

    assert drawn[0] == near(0) and drawn[-1] == near(len(rows) - 1)
    assert near(log_mse.index(lo)) in drawn and near(log_mse.index(hi)) in drawn


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


@pytest.mark.parametrize("experiment,body", [
    ("ber_sweep", "ebn0_db = 0, 5\nmax_bits = 4000"),
    # the mu default reads the upper-cased name: 0.0006 for QAM8
    ("cma_convergence", "iterations = 200\nwindow = 50"),
    ("mud_compare", "symbols = 1000"),
])
def test_scheme_names_read_in_any_case(experiment, body):
    def data_rows(scheme):
        cfg = parse_config(f"[common]\nseed = 1\n[{experiment}]\nscheme = {scheme}\n"
                           f"{body}\n", experiment)
        assert cfg.section(experiment)["scheme"] == "QAM8"
        return [[line for line in table.to_csv().splitlines()
                 if not line.startswith("#")] for _, table, _ in run_experiment(cfg)]

    assert data_rows("qam8") == data_rows("QAM8")


def test_only_paths_take_bare_text():
    # a name choice is a kind that lists its names, so the parser rejects a
    # bad one on its line; a key of bare text is a file path
    bare = {f"[{section}] {key}"
            for sections in SCHEMAS.values()
            for section, keys in {"common": COMMON, **sections}.items()
            for key, (kind, _) in keys.items() if kind is str}
    paths = {"[common] out", "[broadcast_sim] topology"}
    assert paths <= bare  # the walk sees the paths
    names = sorted(bare - paths)
    assert names == [], f"keys of bare text that are not paths: {names}"


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
    [improvement_db] = outputs[1][1].column("improvement_db")
    assert abs(improvement_db) < 1.0


def test_cma_windows_may_meet_at_half():
    # window = iterations / 2 splits the trace in two; one more would overlap
    cfg = parse_config(
        "[common]\nseed = 3\n[cma_convergence]\niterations = 400\nwindow = 200\n",
        "cma_convergence",
    )
    (_, trace, _), (_, summary, _) = run_experiment(cfg)
    mse = trace.column("mse")
    [initial], [final] = summary.column("initial_mse"), summary.column("final_mse")
    assert initial == float(np.mean(mse[:200]))
    assert final == float(np.mean(mse[200:]))


def test_cli_exit_codes(tmp_path, capsys):
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
    capsys.readouterr()
    assert cli.main(["ber_sweep", "--config", str(missing)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert readme.form("bansim: cannot read config").fullmatch(line)
    # read as UTF-8, whatever the locale
    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"[common]\nseed = 1\n\xff\xfe\n")
    assert cli.main(["ber_sweep", "--config", str(not_utf8), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert readme.form("bansim: cannot read config").fullmatch(line)
    assert "can't decode byte 0xff" in line

    bad = tmp_path / "bad.cfg"
    bad.write_text("[common]\nno_seed = 1\n")
    assert cli.main(["ber_sweep", "--config", str(bad)]) == 2

    divergent = tmp_path / "divergent.cfg"
    divergent.write_text(
        "[common]\nseed = 1\n[cma_convergence]\nscheme = QAM16\n"
        "mu = 0.05\niterations = 3000\n"
    )
    capsys.readouterr()
    assert cli.main(
        ["cma_convergence", "--config", str(divergent), "--out", str(out)]
    ) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert readme.form("bansim: blind equalizer").fullmatch(line)


@pytest.mark.parametrize("argv", [["bogus", "--config", "configs/ber_sweep.cfg"],
                                  ["ber_sweep"]], ids=["unknown_experiment", "no_config"])
def test_cli_usage_errors_exit_2(tmp_path, capsys, argv):
    # argparse is the one home of the experiment name and the flags
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert readme.form("bansim: error: ").fullmatch(line)
    assert not out.exists()


@pytest.mark.parametrize("marked", ["config", "topology"])
def test_byte_order_mark_is_read_as_utf8(tmp_path, marked):
    # a UTF-8 file may start with a byte-order mark: the run writes the bytes
    # of the same file without it, config_hash included
    topology = (ROOT / "configs" / "topology_example.txt").read_bytes()
    config = (f"[common]\nseed = 1\n[broadcast_sim]\n"
              f"topology = {tmp_path / 'topology.txt'}\ntrials = 5\n").encode()
    outputs = []
    for bom in (b"", "\ufeff".encode()):
        (tmp_path / "topology.txt").write_bytes(
            (bom if marked == "topology" else b"") + topology)
        (tmp_path / "run.cfg").write_bytes((bom if marked == "config" else b"") + config)
        out = tmp_path / f"out{len(outputs)}"
        assert cli.main(["broadcast_sim", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(out)]) == 0
        outputs.append((out / "broadcast_compare.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
    assert readme.form("bansim: cannot write output").fullmatch(line)


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
    clusters = table.column("clusters")
    assert len(clusters) == 10
    assert all(c >= 2 for c in clusters)


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
    with pytest.raises(ConfigError, match=r"^config must set `topology` in the "
                                          r"\[broadcast_sim\] section$"):
        parse_config("[common]\nseed = 5\n", "broadcast_sim")


def test_la_sim_length_mismatch():
    cfg = parse_config(
        "[common]\nseed = 5\n[la_sim]\ndistance_m = 1.0, 2.0\n"
        "tx_power_dbm = 0.0\n",
        "la_sim",
    )
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_float_format_stability():
    table = ResultTable({"v": [0.1234567890123]}, seed=0, config_hash="")
    assert table.to_csv().splitlines()[-1] == "0.123456789"


# one malformed setting per probe, each under `[common] seed = 1`; the last
# field is what the one-line message must name
MALFORMED = [
    ("ber_sweep", "[ber_sweep]\nscheme = QAM64",
     "line 4: [ber_sweep] scheme must be one of BPSK, OQPSK, QAM8, QAM16, got 'QAM64'"),
    ("ber_sweep", "[ber_sweep]\nebn0_db = nan", "ebn0_db"),
    ("ber_sweep", "[ber_sweep]\nmax_bits = 1000, 2000", "max_bits"),
    ("ber_sweep", "[ber_sweep]\nmax_bits = 1.5e3", "max_bits"),
    ("ber_sweep", "[ber_sweep]\nscheme = QAM16\nmax_bits = 3", "max_bits 3"),
    ("cma_convergence", "[cma_convergence]\nnf = 12",
     "line 4: [cma_convergence] nf must be an odd integer of at least 1, got '12'"),
    ("cma_convergence", "[cma_convergence]\nmu = -0.0003",
     "line 4: [cma_convergence] mu must be a finite number of at least 0, got "
     "'-0.0003'"),
    ("cma_convergence", "[cma_convergence]\nvariant = NOPE",
     "line 4: [cma_convergence] variant must be CMA or DSE_CMA, got 'NOPE'"),
    # a bad name fails as its line is parsed, before anything is drawn or
    # allocated; a variant name is read as written, in its case
    ("cma_convergence",
     "[cma_convergence]\niterations = 1000000000000000\nvariant = cma",
     "line 5: [cma_convergence] variant must be CMA or DSE_CMA, got 'cma'"),
    ("cma_convergence", "[cma_convergence]\nscheme = BPSK",
     "line 4: [cma_convergence] scheme must be QAM8 or QAM16, got 'BPSK'"),
    ("doa_hist", "[doa_hist]\nbins = 0",
     "line 4: [doa_hist] bins must be an integer of at least 1, got '0'"),
    ("doa_hist", "[doa_hist]\ncount = 0",
     "line 4: [doa_hist] count must be an integer of at least 1, got '0'"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {example}\nsource = 99",
     "source 99"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {bad_topology}",
     "topology line 5"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\nnum_clusters = 0",
     "line 5: [channel_stats] num_clusters must be an integer of at least 1, got '0'"),
    ("channel_stats", "[ban]\ndelta_ns = 3, 4", "delta_ns"),
    ("channel_stats", "[channel_stats]\nmodel = rayleigh",
     "line 4: [channel_stats] model must be outdoor_ban or indoor_ban, got 'rayleigh'"),
    # a ground delay that rounds to bin 0 would merge the two outdoor clusters
    ("channel_stats", "[ban]\ndelta_ns = 20", "tau_ground_ns"),
    # taps longer than numpy can allocate, named before any allocation: past
    # numpy's largest dimension, or past its largest array in bytes
    ("channel_stats", "[ban]\ndelta_ns = 1e-300",
     "channel_stats: tau_ground_ns 5 at delta_ns 1e-300 starts the ground cluster "
     "at bin 5e+300: with num_bins_per_cluster 16 its taps pass the "
     "576460752303423487 numpy can allocate"),
    ("channel_stats", "[ban]\ntau_ground_ns = 1e300",
     "tau_ground_ns 1e+300 at delta_ns 1 starts the ground cluster at bin 1e+300"),
    ("channel_stats", "[ban]\ndelta_ns = 4.336808689942018e-18",
     "tau_ground_ns 5 at delta_ns 4.33681e-18 starts the ground cluster at bin "
     "1.15292e+18: with num_bins_per_cluster 16"),
    # a drawn reflection start as long
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "mean_cluster_interarrival_ns = 1e300",
     "channel_stats: mean_cluster_interarrival_ns 1e+300 drew a reflection cluster "
     "3.4615e+300 ns in: at delta_ns 1 its taps pass the 576460752303423487 numpy "
     "can allocate"),
    ("channel_stats", "[bann]", "[bann]"),
    # decays whose rays underflow to zero taps: an error, never nan or
    # plausible slopes fitted around the missing rays
    ("channel_stats", "[ban]\ngamma_ray_db_per_ns = 1e200", "gamma_ray_db_per_ns"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "gamma_ray_db_per_ns = 700", "gamma_ray_db_per_ns"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "gamma_cluster_db_per_ns = 1e200", "gamma_cluster_db_per_ns"),
    ("channel_stats", "[ban]\nnum_bins_per_cluster = 0",
     "line 4: [ban] num_bins_per_cluster must be an integer of at least 1, got '0'"),
    # a negative fading spread: an error, never the rows of no fading
    ("channel_stats", "[ban]\nsigma_ray_db = -3",
     "line 4: [ban] sigma_ray_db must be a finite number of at least 0, got '-3'"),
    ("channel_stats", "[channel_stats]\nmodel = indoor_ban\n[ban]\n"
     "sigma_cluster_db = -3",
     "line 6: [ban] sigma_cluster_db must be a finite number of at least 0, got '-3'"),
    ("channel_stats", "[ban]\nshadowing_sigma_db = -3",
     "line 4: [ban] shadowing_sigma_db must be a finite number of at least 0, got "
     "'-3'"),
    # each rejection names the line, section and key, the rule and the text
    ("channel_stats", "[ban]\ndelta_ns = 0",
     "line 4: [ban] delta_ns must be a finite number above 0, got '0'"),
    ("channel_stats", "[ban]\nmean_cluster_interarrival_ns = 0",
     "line 4: [ban] mean_cluster_interarrival_ns must be a finite number above 0, "
     "got '0'"),
    ("channel_stats", "[ban]\ntau_ground_ns = -1",
     "line 4: [ban] tau_ground_ns must be a finite number of at least 0, got '-1'"),
    ("channel_stats", "[ban]\ngamma_cluster_db_per_ns = -0.5",
     "line 4: [ban] gamma_cluster_db_per_ns must be a finite number of at least 0, "
     "got '-0.5'"),
    ("channel_stats", "[ban]\ngamma_ray_db_per_ns = -0.5",
     "line 4: [ban] gamma_ray_db_per_ns must be a finite number of at least 0, got "
     "'-0.5'"),
    ("la_sim", "[la_sim]\nd0_m = 0",
     "line 4: [la_sim] d0_m must be a finite number above 0, got '0'"),
    ("la_sim", "[la_sim]\nexponent = -3",
     "line 4: [la_sim] exponent must be a finite number above 0, got '-3'"),
    ("la_sim", "[la_sim]\nsigma_db = -1",
     "line 4: [la_sim] sigma_db must be a finite number of at least 0, got '-1'"),
    ("doa_hist", "[doa_hist]\na = 1.5",
     "line 4: [doa_hist] a must be a number in (0, 1), got '1.5'"),
    ("doa_hist", "[doa_hist]\nradius_m = 0",
     "line 4: [doa_hist] radius_m must be a finite number above 0, got '0'"),
    ("doa_hist", "[doa_hist]\nbs_distance_m = 50",
     "doa_hist: bs_distance_m must be above radius_m 100.0, got 50.0"),
    # numpy's histogram named no key for a range it cannot cut into bins,
    # and widened a zero range to +-0.5 rad
    ("doa_hist", "[doa_hist]\nradius_m = 1e-320\ncount = 1000",
     "doa_hist: radius_m 1e-320 over bs_distance_m 1000.0 leaves a DOA half-range of "
     "1e-323 rad, too narrow to split into bins 61 of positive width"),
    ("doa_hist", "[doa_hist]\nradius_m = 5e-324\nbins = 1",
     "doa_hist: radius_m 5e-324 over bs_distance_m 1000.0 leaves a DOA half-range of "
     "0.0 rad, too narrow to split into bins 1 of positive width"),
    ("ber_sweep", "seed = abc", "seed"),
    ("ber_sweep", "seed = 1.7", "seed"),
    # numpy's seeding takes no negative entropy
    ("ber_sweep", "seed = -1",
     "line 2: [common] seed must be an integer of at least 0, got '-1'"),
    ("ber_sweep", "--seed -5", "--seed must be an integer of at least 0, got '-5'"),
    # counts whose arrays need more than 2**50 bytes: no host allocates them
    ("mud_compare", "[mud_compare]\nsymbols = 1000000000000000",
     "mud_compare: allocation too large for memory"),
    ("cma_convergence", "[cma_convergence]\niterations = 1000000000000000",
     "cma_convergence: allocation too large for memory"),
    ("channel_stats", "[channel_stats]\ndraws = 1000000000000000",
     "channel_stats: allocation too large for memory"),
    ("mud_compare", "[mud_compare]\nscheme = 8PSK",
     "line 4: [mud_compare] scheme must be one of BPSK, OQPSK, QAM8, QAM16, got '8PSK'"),
    ("mud_compare", "[mud_compare]\ntemplate1 = 0", "template1"),
    ("mud_compare", "[mud_compare]\ntemplate1 = 0, 0", "template1"),
    # a nonzero template whose energy underflows is not a zero template
    ("mud_compare", "[mud_compare]\ntemplate1 = 1e-300",
     "mud_compare: template1's energy sum |t|**2 underflows to zero"),
    ("mud_compare", "[mud_compare]\nnb = -1",
     "line 4: [mud_compare] nb must be an integer of at least 0, got '-1'"),
    # more feedback taps than training symbols: the model's training-size
    # rule, never numpy's text from building the feedback rows
    ("mud_compare", "[mud_compare]\ntraining = 100\nnb = 101",
     "mud_compare: need at least 1070 training symbols, got 100"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {example}\nmax_backoff = -1",
     "line 5: [broadcast_sim] max_backoff must be an integer in [0, 2**63 - 1], got "
     "'-1'"),
    # a backoff range numpy's int64 draw cannot hold; 2**63 - 1 runs
    ("broadcast_sim",
     "[broadcast_sim]\ntopology = {example}\nmax_backoff = 100000000000000000000",
     "line 5: [broadcast_sim] max_backoff must be an integer in [0, 2**63 - 1], got "
     "'100000000000000000000'"),
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
    ("cma_convergence", "[cma_convergence]\niterations = 999\nwindow = 500",
     "cma_convergence: window 500 is more than half of iterations 999"),
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
    ("mud_compare", "[mud_compare]\nridge = -1",
     "line 4: [mud_compare] ridge must be a finite number of at least 0, got '-1'"),
    # tree nodes the root cannot reach, and a radio node outside the tree
    ("broadcast_sim", "[broadcast_sim]\ntopology = {cycle_topology}",
     "node 2 is not reachable"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {foreign_topology}",
     "node 99 is not in [tree]"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {self_loop_topology}",
     "topology line 4"),
    # a [params] key set twice, in the config parser's words
    ("broadcast_sim", "[broadcast_sim]\ntopology = {twice_topology}",
     "topology line 3: [params] d_l was already set on line 2"),
    # a topology file is read as UTF-8, whatever the locale
    ("broadcast_sim", "[broadcast_sim]\ntopology = {not_utf8_topology}",
     "broadcast_sim: 'utf-8' codec can't decode byte 0xff"),
    # block addresses past 64 bits, whose Cskip power would take minutes
    ("broadcast_sim", "[broadcast_sim]\ntopology = {deep_topology}",
     "n_chl 4 and d_l 100000000000"),
    # a maximum depth below the root's
    ("broadcast_sim", "[broadcast_sim]\ntopology = {shallow_topology}",
     "node 0 exceeds maximum depth -1"),
    # counts the models take unchecked: the schema rejects them first
    ("la_sim", "[la_sim]\nwindow = 0",
     "line 4: [la_sim] window must be an integer of at least 1, got '0'"),
    ("la_sim", "[la_sim]\nwindow = -1",
     "line 4: [la_sim] window must be an integer of at least 1, got '-1'"),
    ("la_sim", "[la_sim]\nrounds = 0",
     "line 4: [la_sim] rounds must be an integer of at least 1, got '0'"),
    # link settings out of the path loss's and thresholds' ranges
    ("la_sim", "[la_sim]\ndistance_m = 0",
     "line 4: [la_sim] distance_m must be a finite number above 0, got '0'"),
    ("la_sim", "[la_sim]\ndistance_m = -1",
     "line 4: [la_sim] distance_m must be a finite number above 0, got '-1'"),
    ("la_sim", "[la_sim]\ndistance_m = nan",
     "line 4: [la_sim] distance_m must be a finite number above 0, got 'nan'"),
    ("la_sim", "[la_sim]\ntx_power_dbm = 0.0, nan",
     "line 4: [la_sim] tx_power_dbm must be a finite number, got 'nan'"),
    ("la_sim", "[la_sim]\nnoise_floor_dbm = nan",
     "line 4: [la_sim] noise_floor_dbm must be a finite number, got 'nan'"),
    ("la_sim", "[la_sim]\na0_db = inf",
     "line 4: [la_sim] a0_db must be a finite number, got 'inf'"),
    ("mud_compare", "[mud_compare]\nns = 0",
     "line 4: [mud_compare] ns must be an integer of at least 1, got '0'"),
    ("mud_compare", "[mud_compare]\nnw = 0",
     "line 4: [mud_compare] nw must be an integer of at least 1, got '0'"),
    ("cma_convergence", "[cma_convergence]\nsamples_per_symbol = 0",
     "line 4: [cma_convergence] samples_per_symbol must be an integer of at least 1, "
     "got '0'"),
    ("cma_convergence", "[cma_convergence]\nchannel =",
     "[cma_convergence] channel has no value"),
    ("broadcast_sim", "[broadcast_sim]\ntopology = {example}\ntrials = 0",
     "line 5: [broadcast_sim] trials must be an integer of at least 1, got '0'"),
    ("ber_sweep", "[ber_sweep]\nmax_bits = 0",
     "line 4: [ber_sweep] max_bits must be an integer of at least 1, got '0'"),
    ("ber_sweep", "[ber_sweep]\nmin_errors = 0",
     "line 4: [ber_sweep] min_errors must be an integer of at least 1, got '0'"),
    ("channel_stats", "[channel_stats]\ndraws = 0",
     "line 4: [channel_stats] draws must be an integer of at least 1, got '0'"),
    ("cma_convergence", "[cma_convergence]\niterations = 0",
     "line 4: [cma_convergence] iterations must be an integer of at least 1, got '0'"),
    ("cma_convergence", "[cma_convergence]\nwindow = 0",
     "line 4: [cma_convergence] window must be an integer of at least 1, got '0'"),
    ("mud_compare", "[mud_compare]\nsymbols = 0",
     "line 4: [mud_compare] symbols must be an integer of at least 1, got '0'"),
    ("mud_compare", "[mud_compare]\ntraining = 0",
     "line 4: [mud_compare] training must be an integer of at least 1, got '0'"),
    # the values just past the ends of a range
    ("cma_convergence", "[cma_convergence]\nnf = 2",
     "line 4: [cma_convergence] nf must be an odd integer of at least 1, got '2'"),
    ("doa_hist", "[doa_hist]\na = 0",
     "line 4: [doa_hist] a must be a number in (0, 1), got '0'"),
    ("doa_hist", "[doa_hist]\na = 1",
     "line 4: [doa_hist] a must be a number in (0, 1), got '1'"),
    # a '#' after a value is part of it, which its kind then rejects, and a
    # header is a whole line
    ("la_sim", "seed = 1 # note",
     "line 2: [common] seed must be an integer of at least 0, got '1 # note'"),
    ("la_sim", "[la_sim] # link run", "line 3: expected `key = value`, got "
     "'[la_sim] # link run'"),
    # a rule across two keys runs before the runner allocates anything
    ("channel_stats",
     "[channel_stats]\ndraws = 1000000000000000\n[ban]\ntau_ground_ns = 0",
     "channel_stats: tau_ground_ns 0 rounds to bin 0 at delta_ns 1: the ground "
     "cluster would merge into the body cluster"),
]
# the README's example of each message form, with the whole stderr line
MALFORMED += readme.examples()


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
    twice_topology = tmp_path / "twice_topology.txt"
    twice_topology.write_text("[params]\nd_l = 3\nd_l = 9\n[tree]\n0 1\n")
    deep_topology = tmp_path / "deep_topology.txt"
    deep_topology.write_text("[params]\nn_chl = 4\nd_l = 100000000000\n"
                             "[tree]\n0 1\n1 2\n")
    shallow_topology = tmp_path / "shallow_topology.txt"
    shallow_topology.write_text("[params]\nd_l = -1\n[tree]\n0 1\n")
    not_utf8_topology = tmp_path / "not_utf8_topology.txt"
    not_utf8_topology.write_bytes(b"[tree]\n0 1\n\xff\n")
    body = body.format(example=ROOT / "configs" / "topology_example.txt",
                       bad_topology=bad_topology, cycle_topology=cycle_topology,
                       foreign_topology=foreign_topology,
                       self_loop_topology=self_loop_topology,
                       twice_topology=twice_topology,
                       deep_topology=deep_topology, shallow_topology=shallow_topology,
                       not_utf8_topology=not_utf8_topology)
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


def test_malformed_rows_are_distinct():
    # a README example kept in the list above too would run twice
    inputs = [(experiment, body) for experiment, body, _ in MALFORMED]
    assert len(set(inputs)) == len(inputs)


def _out_of_range(experiment: str, body: str) -> set[tuple[str, str]]:
    """(section, key) of each ranged setting a config body sets to a value
    its kind's type reads but its range rejects."""
    schema = {"common": COMMON, **SCHEMAS[experiment]}
    section, found = "common", set()
    for line in body.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            key, text = (part.strip() for part in line.split("=", 1))
            kind = schema.get(section, {}).get(key, (None,))[0]
            kind = kind[0] if isinstance(kind, list) else kind
            if isinstance(kind, Kind) and any(_breaks(kind, part.strip())
                                              for part in text.split(",")):
                found.add((section, key))
    return found


def _breaks(kind: Kind, text: str) -> bool:
    try:
        return not kind.ok(kind.type(text))
    except ValueError:
        return False


def test_out_of_range_scan():
    assert _out_of_range("la_sim", "[la_sim]\nrounds = 2\ndistance_m = 1, 0\n"
                         "th_pf = x\nwindow = 0") == {("la_sim", "distance_m"),
                                                      ("la_sim", "window")}
    assert _out_of_range("doa_hist", "seed = -1\n[doa_hist]\na = 0.5") == {
        ("common", "seed")}


def test_every_ranged_key_has_a_malformed_row():
    # a [common] key may be set under any experiment
    def owner(experiment, section):
        return "*" if section == "common" else experiment

    ranged = {(owner(experiment, section), section, key)
              for experiment, sections in SCHEMAS.items()
              for section, keys in {"common": COMMON, **sections}.items()
              for key, (kind, _) in keys.items()
              if isinstance(kind[0] if isinstance(kind, list) else kind, Kind)}
    assert ("la_sim", "la_sim", "th_pf") in ranged  # the walk sees the fields
    assert ("*", "common", "seed") in ranged
    covered = {(owner(experiment, section), section, key)
               for experiment, body, names in MALFORMED
               for section, key in _out_of_range(experiment, body)
               if f"[{section}] {key} must be" in names}
    assert sorted(ranged - covered) == []


# settings at the ends of their ranges, which run: -0.0 is not below 0
AT_RANGE_ENDS = [
    ("cma_convergence", "[cma_convergence]\nnf = 1\niterations = 200\nwindow = 50"),
    ("cma_convergence", "[cma_convergence]\nmu = -0.0\niterations = 200\nwindow = 50"),
    ("la_sim", "[la_sim]\nth_pf = 0\nrounds = 3"),
    ("la_sim", "[la_sim]\nth_pf = 1\nrounds = 3"),
    ("broadcast_sim", "[broadcast_sim]\nmax_backoff = 9223372036854775807\n"
     "topology = {example}\ntrials = 2"),
]


@pytest.mark.parametrize("experiment,body", AT_RANGE_ENDS,
                         ids=[f"{e}:{b.splitlines()[1]}" for e, b in AT_RANGE_ENDS])
def test_settings_at_range_ends_run(tmp_path, experiment, body):
    cfg = tmp_path / "edge.cfg"
    body = body.format(example=ROOT / "configs" / "topology_example.txt")
    cfg.write_text(f"[common]\nseed = 1\n{body}\n")
    assert _out_of_range(experiment, body) == set()
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    assert any(out.iterdir())


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


def _traced(run_id: str, counts: list[str]):
    run = pins.RUN[run_id]
    # a config file's run keeps the file name as its id
    return pytest.param(run, counts, id=run.config.name
                        if isinstance(run.config, Path) else run_id)


# pinned runs under the benchmark's tracer and the meter counts each must
# record; no shipped config runs DSE-CMA, which the receivers workload does
TRACED_RUNS = [
    _traced("ber_sweep", ["sigproc.add_awgn.symbols", "sigproc.demodulate.dist_bytes",
                          "sigproc.nearest_labels.dist_bytes"]),
    _traced("channel_stats", ["channels.draws"]),
    _traced("channel_stats_indoor", ["channels.draws"]),
    _traced("doa_hist", ["channels.gbhds_doa_histogram.samples"]),
    _traced("cma_convergence_qam8", ["kernels.cma_run.cma_iters"]),
    _traced("cma_convergence_qam16", ["kernels.cma_run.cma_iters"]),
    _traced("dse_cma_qam8", ["kernels.dse_cma_run.dse_iters"]),
    _traced("mud_compare", ["equalize.linear_mud_detect.symbols",
                            "kernels.dfe_detect_run.dfe_symbols",
                            "sigproc.nearest_labels.dist_bytes"]),
    _traced("la_sim", ["linkadapt.simulate_la.node_rounds"]),
    _traced("broadcast_sim", ["zigbee.self_pruning_broadcast.trials",
                              "zigbee.self_pruning_broadcast.tx"]),
]


@pytest.mark.parametrize("run,counts", TRACED_RUNS)
def test_benchmark_tracer_binds(tmp_path, monkeypatch, run, counts):
    """Every function the benchmark's tracer wraps still binds its meter, and
    a traced run writes its pinned bytes."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    experiment = run.experiment
    cfg = parse_config(pins.config_file(run, tmp_path).read_text(), experiment)
    tracer = tracing.Tracer()
    tracer.install()
    texts = {}
    try:
        # emitted under the tracer too, as the benchmark's worker emits
        for stem, table, plot in run_experiment(cfg):
            texts[f"{stem}.csv"] = table.to_csv()
            if plot is not None:
                texts[f"{stem}.svg"] = emit_svg(table, plot)
    finally:
        tracer.uninstall()
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()} == run.digests
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
