"""Link-adaptation controller: per-round rate selection from measured SNR
and the windowed packet-failure fraction, over a power/SIR reception model.

Rate moves down when the channel is bad (SNR below threshold or failure
fraction above threshold) and up only when both look good; one level per
round, clamped to the rate table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .channels import PathLossParams, path_loss_db


@dataclass
class LaThresholds:
    th_snr_db: float = 15.0
    th_pf: float = 0.1
    p_rmin_dbm: float = -85.0
    ci_min_db: tuple = (-5.0, 0.0, 5.0, 10.0)  # one entry per rate level

    def __post_init__(self) -> None:
        if not (0.0 <= self.th_pf <= 1.0):
            raise ValueError("failure-probability threshold must be in [0, 1]")


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


def la_update(level: int, snr_db: float, p_f: float, thresholds: LaThresholds) -> int:
    """The rate level after ``level``: one down on a bad channel, one up on a
    good one; a NaN SNR or failure fraction is neither, and holds the level."""
    if snr_db < thresholds.th_snr_db or p_f > thresholds.th_pf:
        return max(0, level - 1)
    if snr_db >= thresholds.th_snr_db and p_f <= thresholds.th_pf:
        return min(len(thresholds.ci_min_db) - 1, level + 1)
    return level


def simulate_la(
    nodes: list[tuple[float, float]],
    rounds: int,
    pl: PathLossParams,
    thresholds: LaThresholds,
    seed,
    window: int,
    noise_floor_dbm: float,
) -> list[tuple[int, int, int, float, float, bool]]:
    """Run `rounds` rounds over `nodes`, (tx power dBm, distance m) pairs;
    every node starts at rate level 0 and transmits each round.  One row per
    (round, node): (round, node index, rate level, SNR dB, failure fraction
    of the last `window` packets, received).  The arguments are not changed."""
    rng = np.random.default_rng(seed)
    levels = [0] * len(nodes)
    failures = [deque(maxlen=window) for _ in nodes]
    trace = []
    for rnd in range(rounds):
        # every node transmits each round; shadowing redrawn per (round, node)
        received_powers = [tx_power - path_loss_db(distance, pl, rng)
                           for tx_power, distance in nodes]
        linear = [10.0 ** (p / 10.0) for p in received_powers]
        for i, p_r in enumerate(received_powers):
            interf_lin = sum(linear[:i] + linear[i + 1 :])
            snr_db = p_r - noise_floor_dbm
            # `== 0.0`, not `> 0.0`: a NaN sum must reach the C/I test
            interf_dbm = (float("-inf") if interf_lin == 0.0
                          else 10.0 * np.log10(interf_lin))
            ok = packet_received(p_r, interf_dbm, levels[i], thresholds)
            failures[i].append(0 if ok else 1)
            p_f = sum(failures[i]) / len(failures[i])
            trace.append((rnd, i, levels[i], snr_db, p_f, ok))
            levels[i] = la_update(levels[i], snr_db, p_f, thresholds)
    return trace
