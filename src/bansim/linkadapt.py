"""Link-adaptation controller: per-round rate selection from measured SNR
and the windowed packet-failure fraction, over a power/SIR reception model.

Rate moves down when the channel is bad (SNR below threshold or failure
fraction above threshold) and up only when both look good; one level per
round, clamped to the rate table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import PathLossParams, path_loss_db

DEFAULT_NOISE_FLOOR_DBM = -100.0
DEFAULT_FAILURE_WINDOW = 16


@dataclass
class LaThresholds:
    th_snr_db: float = 15.0
    th_pf: float = 0.1
    p_rmin_dbm: float = -85.0
    ci_min_db: tuple = (-5.0, 0.0, 5.0, 10.0)  # one entry per rate level

    def __post_init__(self) -> None:
        if not (0.0 <= self.th_pf <= 1.0):
            raise ValueError("failure-probability threshold must be in [0, 1]")


@dataclass
class LaNode:
    id: int
    tx_power_dbm: float
    distance_m: float
    rate_level: int = 0
    p_f: float = 0.0
    failure_history: list = field(default_factory=list, repr=False)


def packet_received(
    p_r_dbm: float,
    interference_power_dbm: float,
    rate_level: int,
    thresholds: LaThresholds,
) -> bool:
    """Reception at ``rate_level``: power above sensitivity and C/I at least
    that rate's threshold; ``-inf`` interference means none."""
    if p_r_dbm <= thresholds.p_rmin_dbm:
        return False
    if interference_power_dbm == float("-inf"):
        return True
    ci_db = p_r_dbm - interference_power_dbm
    return bool(ci_db >= thresholds.ci_min_db[rate_level])


def la_update(node: LaNode, measured_snr_db: float, thresholds: LaThresholds) -> LaNode:
    max_level = len(thresholds.ci_min_db) - 1
    if measured_snr_db < thresholds.th_snr_db or node.p_f > thresholds.th_pf:
        node.rate_level = max(0, node.rate_level - 1)
    elif measured_snr_db >= thresholds.th_snr_db and node.p_f <= thresholds.th_pf:
        node.rate_level = min(max_level, node.rate_level + 1)
    return node


@dataclass
class LaTraceRow:
    round: int
    node: int
    rate_level: int
    snr_db: float
    p_f: float
    received: bool


def simulate_la(
    nodes: list[LaNode],
    rounds: int,
    pl: PathLossParams,
    thresholds: LaThresholds,
    seed,
    window: int = DEFAULT_FAILURE_WINDOW,
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
) -> list[LaTraceRow]:
    rng = np.random.default_rng(seed)
    trace: list[LaTraceRow] = []
    for rnd in range(rounds):
        # every node transmits each round; shadowing redrawn per (round, node)
        received_powers = [node.tx_power_dbm - path_loss_db(node.distance_m, pl, rng)
                           for node in nodes]
        linear = [10.0 ** (p / 10.0) for p in received_powers]
        for i, node in enumerate(nodes):
            p_r = received_powers[i]
            interf_lin = sum(linear[:i] + linear[i + 1 :])
            snr_db = p_r - noise_floor_dbm
            # `== 0.0`, not `> 0.0`: a NaN sum must reach the C/I test
            interf_dbm = (float("-inf") if interf_lin == 0.0
                          else 10.0 * np.log10(interf_lin))
            ok = packet_received(p_r, interf_dbm, node.rate_level, thresholds)
            node.failure_history.append(0 if ok else 1)
            recent = node.failure_history[-window:]
            node.p_f = sum(recent) / len(recent)
            trace.append(
                LaTraceRow(rnd, node.id, node.rate_level, snr_db, node.p_f, ok)
            )
            la_update(node, snr_db, thresholds)
    return trace
