"""Per-node reference for ``bansim.linkadapt.simulate_la``.

``simulate_la_reference`` takes the arguments of the function and returns
one ``(round, node, rate level, SNR dB, failure fraction, received)`` tuple
per (round, node).  Every round it draws one scalar shadowing value per node,
adds up the other N - 1 linear received powers of each node left to right
with ``sum()`` (O(N^2) per round), and keeps one ``deque(maxlen=window)`` of
outcomes per node.  ``path_loss_db``, ``packet_received`` and ``la_update``
are the scalar forms the reference calls.  The round-at-a-time function
sums the interference from two running sums, so its interference bits
differ from these; ``test_linkadapt.py`` checks that every row is still
equal, on the benchmark's node placement and on random inputs.
"""

from collections import deque

import numpy as np


def path_loss_db(d_m: float, params, rng=None) -> float:
    if not 0.0 < d_m < np.inf:  # NaN fails both comparisons
        raise ValueError(f"distance must be finite and positive, got {d_m}")
    loss = params.a0_db + 10.0 * params.exponent * np.log10(d_m / params.d0_m)
    if rng is not None and params.sigma_db > 0:
        loss += params.sigma_db * rng.standard_normal()
    return float(loss)


def packet_received(p_r_dbm: float, interference_power_dbm: float,
                    rate_level: int, thresholds) -> bool:
    if p_r_dbm <= thresholds.p_rmin_dbm:
        return False
    if interference_power_dbm == float("-inf"):
        return True
    ci_db = p_r_dbm - interference_power_dbm
    return bool(ci_db >= thresholds.ci_min_db[rate_level])


def la_update(level: int, snr_db: float, p_f: float, thresholds) -> int:
    if snr_db < thresholds.th_snr_db or p_f > thresholds.th_pf:
        return max(0, level - 1)
    if snr_db >= thresholds.th_snr_db and p_f <= thresholds.th_pf:
        return min(len(thresholds.ci_min_db) - 1, level + 1)
    return level


def simulate_la_reference(nodes, rounds, pl, thresholds, rng, window,
                          noise_floor_dbm):
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
