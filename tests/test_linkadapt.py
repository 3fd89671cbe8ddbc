import numpy as np
import pytest

from bansim import channels, linkadapt
from bansim.harness.config import parse_config
from bansim.harness.experiments import run_experiment

PL = channels.PathLossParams(35.2, 0.1, 3.11, 0.0)
TH = linkadapt.LaThresholds(15.0, 0.1, -85.0, (-5.0, 0.0, 5.0, 10.0))
WINDOW, NOISE_FLOOR_DBM = 16, -100.0  # the la_sim config defaults


def received_dbm(distance_m):
    """Received power of a 0 dBm transmitter at ``distance_m``."""
    return 0.0 - channels.path_loss_db(distance_m, PL)


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
    trace = linkadapt.simulate_la([(0.0, 1.0)], 8, PL, TH, 0, WINDOW, NOISE_FLOOR_DBM)
    levels = [level for _round, _node, level, _snr, _p_f, _ok in trace]
    assert levels == [0, 1, 2, 3, 3, 3, 3, 3]
    assert all(ok for *_, ok in trace)


def test_out_of_range_node_pinned_at_minimum():
    trace = linkadapt.simulate_la([(0.0, 50.0)], 8, PL, TH, 0, WINDOW, NOISE_FLOOR_DBM)
    assert all(not ok for *_, ok in trace)
    assert all(level == 0 for _round, _node, level, *_ in trace)
    assert trace[-1][4] == 1.0  # p_f


def test_simulate_deterministic_under_seed():
    shadowed = channels.PathLossParams(35.2, 0.1, 3.11, 6.1)
    # one list for both calls: the rows are a function of the arguments
    nodes = [(0.0, 1.0), (0.0, 2.0)]

    def run():
        return linkadapt.simulate_la(nodes, 20, shadowed, TH, 99, WINDOW,
                                     NOISE_FLOOR_DBM)

    assert run() == run()
    assert nodes == [(0.0, 1.0), (0.0, 2.0)]


def test_reception_monotone_in_distance():
    outcomes = [
        linkadapt.packet_received(received_dbm(d), float("-inf"), 0, TH)
        for d in np.linspace(0.5, 20.0, 40)
    ]
    # once reception fails it never comes back at larger distance
    assert outcomes == sorted(outcomes, reverse=True)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        linkadapt.LaThresholds(th_pf=1.5)


def test_trace_csv_format():
    cfg = parse_config(
        "[common]\nseed = 0\n[la_sim]\nrounds = 1\ndistance_m = 1.0\n",
        "la_sim",
    )
    [(stem, table, _plot)] = run_experiment(cfg)
    assert stem == "la_trace"
    assert table.columns == ["round", "node", "rate_level", "snr_db", "p_f",
                             "received"]
    assert table.to_csv().splitlines()[-1].split(",")[-1] in ("0", "1")
