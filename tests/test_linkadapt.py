import numpy as np
import pytest

from bansim import channels, linkadapt
from bansim.harness.config import parse_config
from bansim.harness.experiments import run_experiment

PL = channels.PathLossParams(35.2, 0.1, 3.11, 0.0)
TH = linkadapt.LaThresholds(15.0, 0.1, -85.0, (-5.0, 0.0, 5.0, 10.0))


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
    node = linkadapt.LaNode(0, 0.0, 1.0, rate_level=2)
    linkadapt.la_update(node, TH.th_snr_db - 5.0, TH)
    assert node.rate_level == 1
    node.p_f = 0.5
    linkadapt.la_update(node, TH.th_snr_db + 5.0, TH)
    assert node.rate_level == 0  # high failure rate forces down
    linkadapt.la_update(node, TH.th_snr_db - 5.0, TH)
    assert node.rate_level == 0  # clamped at floor
    node.p_f = 0.0
    for _ in range(10):
        linkadapt.la_update(node, TH.th_snr_db + 5.0, TH)
    assert node.rate_level == 3  # clamped at ceiling


def test_single_good_node_climbs_to_max():
    nodes = [linkadapt.LaNode(0, 0.0, 1.0)]
    trace = linkadapt.simulate_la(nodes, 8, PL, TH, seed=0)
    levels = [row.rate_level for row in trace]
    assert levels == [0, 1, 2, 3, 3, 3, 3, 3]
    assert all(row.received for row in trace)


def test_out_of_range_node_pinned_at_minimum():
    nodes = [linkadapt.LaNode(0, 0.0, 50.0)]
    trace = linkadapt.simulate_la(nodes, 8, PL, TH, seed=0)
    assert all(not row.received for row in trace)
    assert all(row.rate_level == 0 for row in trace)
    assert trace[-1].p_f == 1.0


def test_simulate_deterministic_under_seed():
    shadowed = channels.PathLossParams(35.2, 0.1, 3.11, 6.1)

    def run():
        nodes = [linkadapt.LaNode(0, 0.0, 1.0), linkadapt.LaNode(1, 0.0, 2.0)]
        return linkadapt.simulate_la(nodes, 20, shadowed, TH, seed=99)

    assert run() == run()


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
