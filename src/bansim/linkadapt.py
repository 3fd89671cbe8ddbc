"""Link-adaptation controller: per-round rate selection from measured SNR
and the windowed packet-failure fraction, over a power/SIR reception model.

Rate moves down when the channel is bad (SNR below threshold or failure
fraction above threshold) and up only when both look good; one level per
round, clamped to the rate table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PathLossParams, path_loss_db


@dataclass
class LaThresholds:
    th_snr_db: float = 15.0
    th_pf: float = 0.1
    p_rmin_dbm: float = -85.0
    ci_min_db: tuple = (-5.0, 0.0, 5.0, 10.0)  # one entry per rate level


def packet_received(p_r_dbm, interference_power_dbm, rate_level,
                    thresholds: LaThresholds):
    """Reception of each node at its ``rate_level``: power above sensitivity
    and C/I at least that rate's threshold; ``-inf`` interference means none.
    The arguments are arrays of one value per node, or scalars."""
    ci_db = p_r_dbm - interference_power_dbm
    # not below sensitivity: a NaN power still reaches the C/I test
    return np.logical_not(p_r_dbm <= thresholds.p_rmin_dbm) & (
        (interference_power_dbm == -np.inf)
        | (ci_db >= np.take(thresholds.ci_min_db, rate_level)))


def la_update(level, snr_db, p_f, thresholds: LaThresholds):
    """The rate level of each node after ``level``: one down on a bad
    channel, one up on a good one; a NaN SNR or failure fraction is neither,
    and holds the level."""
    down = (snr_db < thresholds.th_snr_db) | (p_f > thresholds.th_pf)
    up = (snr_db >= thresholds.th_snr_db) & (p_f <= thresholds.th_pf)
    return np.clip(level + up - down, 0, len(thresholds.ci_min_db) - 1)


def _interference(linear: np.ndarray) -> np.ndarray:
    """Each node's interference, the sum of the other nodes' linear powers:
    the running sum of the nodes before it plus the running sum of the nodes
    after it, O(N) in all.  Both are sums of positive terms taken in a fixed
    order, so the bits do not depend on the Python or numpy build, and the
    error is that of recursive summation, with no cancellation."""
    sums = np.zeros((2, linear.size + 1))
    np.cumsum(linear, out=sums[0, 1:])
    np.cumsum(linear[::-1], out=sums[1, 1:])
    # node i: the first i powers plus the last n - 1 - i
    return sums[0, :-1] + sums[1, -2::-1]


def simulate_la(
    nodes: list[tuple[float, float]],
    rounds: int,
    pl: PathLossParams,
    thresholds: LaThresholds,
    rng: np.random.Generator,
    window: int,
    noise_floor_dbm: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run `rounds` rounds over `nodes`, (tx power dBm, distance m) pairs;
    every node starts at rate level 0 and transmits each round.  Returns
    (rate level, SNR dB, failure fraction of the last `window` packets,
    received), each a (rounds, nodes) array whose row r holds round r.  The
    shadowing is drawn from ``rng``; the other arguments are not changed."""
    tx_power = np.array([tx for tx, _ in nodes])
    distance = np.array([d for _, d in nodes])
    n = len(nodes)
    level = np.zeros(n, dtype=np.intp)
    # each node's failures in the last `window` rows of `received`
    failures = np.zeros(n, dtype=np.intp)
    received = np.empty((rounds, n), dtype=bool)
    out = (np.empty((rounds, n), dtype=np.intp), np.empty((rounds, n)),
           np.empty((rounds, n)), received)
    for rnd in range(rounds):
        # every node transmits each round; shadowing redrawn per (round, node)
        p_r = tx_power - path_loss_db(distance, pl, rng)
        # Python's float power: numpy's may round differently
        linear = np.array([10.0 ** e for e in (p_r / 10.0).tolist()])
        # no other node: 0 is -inf dBm, and no divide-by-zero
        with np.errstate(divide="ignore"):
            interf_dbm = 10.0 * np.log10(_interference(linear))
        ok = packet_received(p_r, interf_dbm, level, thresholds)
        failures += ~ok
        if rnd >= window:
            failures -= ~received[rnd - window]
        snr_db = p_r - noise_floor_dbm
        p_f = failures / min(rnd + 1, window)
        for column, value in zip(out, (level, snr_db, p_f, ok)):
            column[rnd] = value
        level = la_update(level, snr_db, p_f, thresholds)
    return out
