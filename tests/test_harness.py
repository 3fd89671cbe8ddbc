import numpy as np
import pytest

from bansim.harness import cli
from bansim.harness.config import ConfigError, parse_config
from bansim.harness.experiments import run_experiment
from bansim.harness.svg import PlotSpec, emit_svg
from bansim.harness.table import ResultTable


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
    with pytest.raises(ConfigError):
        parse_config("[common]\nseed = 1\n", "not_an_experiment")
    with pytest.raises(ConfigError):
        parse_config("[common]\nx = 1\n", "ber_sweep")  # seed missing
    with pytest.raises(ConfigError):
        parse_config("[common]\nseed = 1\nbroken line\n", "ber_sweep")


def test_result_table_csv_and_provenance():
    table = ResultTable(["a", "b"], seed=4, config_hash="cafe")
    table.append(1, 0.5)
    table.append(2, 0.25)
    lines = table.to_csv().splitlines()
    assert lines[0].startswith("# bansim_version=")
    assert lines[1] == "# seed=4"
    assert lines[2] == "# config_hash=cafe"
    assert lines[3] == "a,b"
    assert lines[4] == "1,0.5"
    assert table.column("b") == [0.5, 0.25]
    with pytest.raises(ValueError):
        table.append(1)
    with pytest.raises(KeyError):
        table.column("missing")


def make_table():
    table = ResultTable(["x", "y"])
    table.append(0.0, 1.0)
    table.append(1.0, 10.0)
    return table


def test_emit_svg_polyline_and_determinism():
    table = make_table()
    spec = PlotSpec("x", ["y"], title="demo")
    svg = emit_svg(table, spec)
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 1
    assert emit_svg(table, spec) == svg


def test_emit_svg_log_zero_error_names_location():
    table = ResultTable(["x", "y"])
    table.append(0.0, 1.0)
    table.append(1.0, 0.0)
    with pytest.raises(ValueError, match="'y' row 1"):
        emit_svg(table, PlotSpec("x", ["y"], log_y=True))


def test_emit_svg_missing_column():
    with pytest.raises(KeyError):
        emit_svg(make_table(), PlotSpec("x", ["nope"]))


def test_run_experiment_unknown_section_errors():
    cfg = parse_config("[common]\nseed = 1\n[ber_sweep]\nebn0_db =\n",
                       "ber_sweep")
    cfg.sections["ber_sweep"]["ebn0_db"] = []
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_small_ber_sweep_structure():
    cfg = parse_config(
        "[common]\nseed = 2\n[ber_sweep]\nscheme = QAM16\n"
        "ebn0_db = 0, 5\nmax_bits = 40000\nmin_errors = 50\n",
        "ber_sweep",
    )
    [(stem, table, _plot)] = run_experiment(cfg)
    assert stem == "ber_sweep"
    assert table.columns == ["ebn0_db", "ber", "bits"]
    bers = table.column("ber")
    assert bers[0] > bers[1] > 0


def test_cma_flat_trace_at_zero_mu():
    cfg = parse_config(
        "[common]\nseed = 3\n[cma_convergence]\nscheme = QAM16\nmu = 0.0\n"
        "iterations = 2000\nwindow = 200\n",
        "cma_convergence",
    )
    outputs = run_experiment(cfg)
    summary = dict(zip(outputs[1][1].columns, outputs[1][1].rows[0]))
    assert abs(summary["improvement_db"]) < 1.0


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
        cfg = parse_config(
            "[common]\nseed = 5\n[channel_stats]\nmodel = outdoor_ban\n"
            f"draws = 2\n[ban]\n{ban}\n",
            "channel_stats",
        )
        with pytest.raises(ConfigError):
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


@pytest.mark.parametrize("setting", [
    "distance_m = 0", "distance_m = -1", "distance_m = nan", "th_pf = 2",
    "rounds = 0",
])
def test_la_sim_impossible_setting_exits_2(tmp_path, setting):
    cfg = tmp_path / "la.cfg"
    cfg.write_text(f"[common]\nseed = 1\n[la_sim]\n{setting}\n")
    out = tmp_path / "out"
    assert cli.main(["la_sim", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "la_trace.csv").exists()


def test_float_format_stability():
    table = ResultTable(["v"])
    table.append(np.float64(0.1234567890123))
    assert table.to_csv().splitlines()[-1] == "0.123456789"
