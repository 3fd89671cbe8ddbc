import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from bansim import channels, linkadapt
from bansim.harness.config import parse_config
from bansim.harness.experiments import run_experiment
from linkadapt_reference import simulate_la_reference

ROOT = Path(__file__).resolve().parent.parent

PL = channels.PathLossParams(35.2, 0.1, 3.11, 0.0)
TH = linkadapt.LaThresholds(15.0, 0.1, -85.0, (-5.0, 0.0, 5.0, 10.0))
WINDOW, NOISE_FLOOR_DBM = 16, -100.0  # the la_sim config defaults


def received_dbm(distance_m):
    """Received power of a 0 dBm transmitter at ``distance_m``; PL draws no
    shadowing."""
    return 0.0 - channels.path_loss_db(distance_m, PL, np.random.default_rng(0))


def test_packet_received_no_interference():
    assert linkadapt.packet_received(received_dbm(1.0), float("-inf"), 0, TH)


def test_packet_received_below_sensitivity():
    # 0 dBm over ~103 dB of loss lands far below the -85 dBm floor
    assert not linkadapt.packet_received(received_dbm(15.0), float("-inf"), 0,
                                         TH)


def test_packet_received_boundary_ci_accepted():
    p_r = received_dbm(1.0)
    exactly = p_r - TH.ci_min_db[1]
    assert linkadapt.packet_received(p_r, exactly, 1, TH)
    assert not linkadapt.packet_received(p_r, exactly + 0.01, 1, TH)


def test_la_update_directions_and_clamps():
    good, bad = TH.th_snr_db + 5.0, TH.th_snr_db - 5.0
    assert linkadapt.la_update(2, bad, 0.0, TH) == 1
    assert linkadapt.la_update(1, good, 0.5, TH) == 0  # high failure rate forces down
    assert linkadapt.la_update(0, bad, 0.5, TH) == 0  # clamped at floor
    level = 0
    for _ in range(10):
        level = linkadapt.la_update(level, good, 0.0, TH)
    assert level == 3  # clamped at ceiling
    # a NaN reading is neither bad nor good: the level holds
    assert linkadapt.la_update(2, float("nan"), 0.0, TH) == 2
    assert linkadapt.la_update(2, good, float("nan"), TH) == 2


def test_single_good_node_climbs_to_max():
    # a lone node has no interference: -inf dBm, with no divide-by-zero
    # warning (the test configuration turns warnings into errors)
    levels, _snr, _p_f, received = linkadapt.simulate_la(
        [(0.0, 1.0)], 8, PL, TH, np.random.default_rng(0), WINDOW, NOISE_FLOOR_DBM)
    assert levels[:, 0].tolist() == [0, 1, 2, 3, 3, 3, 3, 3]
    assert received.all()


def test_out_of_range_node_pinned_at_minimum():
    levels, _snr, p_f, received = linkadapt.simulate_la(
        [(0.0, 50.0)], 8, PL, TH, np.random.default_rng(0), WINDOW, NOISE_FLOOR_DBM)
    assert not received.any()
    assert (levels == 0).all()
    assert p_f[-1, 0] == 1.0


def test_simulate_deterministic_under_seed():
    shadowed = channels.PathLossParams(35.2, 0.1, 3.11, 6.1)
    # one list for both calls: the rows are a function of the arguments
    nodes = [(0.0, 1.0), (0.0, 2.0)]

    def run():
        return linkadapt.simulate_la(nodes, 20, shadowed, TH,
                                     np.random.default_rng(99), WINDOW,
                                     NOISE_FLOOR_DBM)

    first, second = run(), run()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    assert nodes == [(0.0, 1.0), (0.0, 2.0)]


def rows(columns):
    """The per-node reference's row tuples, from simulate_la's columns."""
    levels, snr_db, p_f, received = (c.tolist() for c in columns)
    return [(rnd, node, levels[rnd][node], snr_db[rnd][node], p_f[rnd][node],
             received[rnd][node])
            for rnd in range(len(levels)) for node in range(len(levels[rnd]))]


def test_simulate_matches_reference_on_benchmark_nodes(monkeypatch):
    # perfbench's la_sim placement; the interference bits differ from the
    # reference's left-to-right sum(), every row must not
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    distances, powers = workloads.gen_la_nodes(np.random.default_rng(7),
                                               workloads.LA_NODES)
    shadowed = channels.PathLossParams(35.2, 0.1, 3.11, 4.0)
    # a Generator each: one shared object would move on between the calls
    args = [(list(zip(powers, distances)), 20, shadowed, TH,
             np.random.default_rng(31), WINDOW, NOISE_FLOOR_DBM) for _ in range(2)]
    assert rows(linkadapt.simulate_la(*args[0])) == simulate_la_reference(*args[1])


@pytest.mark.parametrize("n_nodes,rounds", [(2, 40), (3, 40), (17, 40), (200, 20),
                                            (800, 4)])
@pytest.mark.parametrize("sigma_db", [0.0, 4.0, 6.1])
@pytest.mark.parametrize("window", [1, 3, 16])
def test_simulate_matches_reference_on_random_nodes(n_nodes, rounds, sigma_db,
                                                    window):
    rng = np.random.default_rng([n_nodes, window, int(10 * sigma_db)])
    # some nodes out of range (past ~4 m at 0 dBm), most in
    nodes = list(zip(rng.choice([-10.0, -5.0, 0.0, 3.0], n_nodes).tolist(),
                     rng.uniform(0.2, 5.0, n_nodes).tolist()))
    pl = channels.PathLossParams(35.2, 0.1, 3.11, sigma_db)
    for seed in (0, 5):
        # a Generator each: one shared object would move on between the calls
        args = [(nodes, rounds, pl, TH, np.random.default_rng(seed), window,
                 NOISE_FLOOR_DBM) for _ in range(2)]
        assert rows(linkadapt.simulate_la(*args[0])) == simulate_la_reference(*args[1])


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 50, 2000])
@pytest.mark.parametrize("spread_db", [0.0, 30.0, 300.0])
def test_interference_is_a_recursive_sum_of_the_other_nodes(n_nodes, spread_db):
    rng = np.random.default_rng([n_nodes, int(spread_db)])
    linear = 10.0 ** (spread_db * rng.uniform(-0.05, 0.05, n_nodes))
    # one node far above the rest: a total minus that node would cancel
    linear[n_nodes // 2] *= 1e12
    interference = linkadapt._interference(linear)
    values = linear.tolist()
    for i, got in enumerate(interference.tolist()):
        exact = math.fsum(values[:i] + values[i + 1:])
        assert abs(got - exact) <= n_nodes * 2.0**-53 * exact


def test_reception_monotone_in_distance():
    outcomes = [
        linkadapt.packet_received(received_dbm(d), float("-inf"), 0, TH)
        for d in np.linspace(0.5, 20.0, 40)
    ]
    # once reception fails it never comes back at larger distance
    assert outcomes == sorted(outcomes, reverse=True)


def test_trace_csv_format():
    cfg = parse_config(
        "[common]\nseed = 0\n[la_sim]\nrounds = 1\ndistance_m = 1.0\n",
        "la_sim",
    )
    [(stem, table, _plot)] = run_experiment(cfg)
    assert stem == "la_trace"
    assert list(table.columns) == ["round", "node", "rate_level", "snr_db", "p_f",
                                   "received"]
    assert table.to_csv().splitlines()[-1].split(",")[-1] in ("0", "1")
