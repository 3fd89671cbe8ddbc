"""Per-component references for the BAN channel draws in ``bansim.channels``,
the per-draw slope fit in ``bansim.harness.experiments``, and the full-array
GBHDS scatterer and DOA draws.

The generators build one validated ``ChannelImpulseResponse`` per cluster
component and superpose them two at a time; ``first_cluster_slope`` fits one
draw with ``np.polyfit``.  ``gen_outdoor_ban`` and ``gen_indoor_ban`` must
reproduce their taps and cluster starts bit for bit, and the batched slope
fit must agree with ``first_cluster_slope`` to rounding; ``test_channels.py``
checks that with fading on and off.  ``pcg64_state`` and ``draw_streams``
give the stream states the program's generators take, from numpy's own
seeding.  ``gbhds_doa`` builds all ``count``
DOA angles at once; ``np.histogram`` over them must equal the block-streamed
``gbhds_doa_histogram`` byte for byte.
"""

import numpy as np

from bansim.channels import BanModelParams, ChannelImpulseResponse, GbhdsParams


def _delayed_cluster(params: BanModelParams, delay_ns: float,
                     seed) -> ChannelImpulseResponse:
    """One cluster of rays decaying at gamma_ray, delay_ns after time zero."""
    rng = np.random.default_rng(seed)
    n_bins = params.num_bins_per_cluster
    amp_db = -params.gamma_ray_db_per_ns * (np.arange(n_bins) * params.delta_ns)
    if params.sigma_ray_db > 0:
        amp_db = amp_db + params.sigma_ray_db * rng.standard_normal(n_bins)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_bins)
    shift = int(round(delay_ns / params.delta_ns))
    taps = np.concatenate([np.zeros(shift, dtype=complex),
                           10.0 ** (amp_db / 20.0) * np.exp(1j * phases)])
    return ChannelImpulseResponse(taps, [shift])


def _superpose(a: ChannelImpulseResponse,
               b: ChannelImpulseResponse) -> ChannelImpulseResponse:
    """Sum of two responses on the same delay grid, with both cluster sets."""
    taps = np.zeros(max(a.taps.size, b.taps.size), dtype=complex)
    taps[: a.taps.size] += a.taps
    taps[: b.taps.size] += b.taps
    starts = sorted(set(a.cluster_starts) | set(b.cluster_starts))
    return ChannelImpulseResponse(taps, starts)


def gen_body(params: BanModelParams, seed) -> ChannelImpulseResponse:
    return _delayed_cluster(params, 0.0, seed)


def gen_ground(params: BanModelParams, seed) -> ChannelImpulseResponse:
    return _delayed_cluster(params, params.tau_ground_ns, seed)


def gen_outdoor_ban(params: BanModelParams, seed) -> ChannelImpulseResponse:
    # the shift _delayed_cluster applies: at 0 bins the two clusters would merge
    if round(params.tau_ground_ns / params.delta_ns) == 0:
        raise ValueError(f"tau_ground_ns {params.tau_ground_ns:g} rounds to bin 0 at "
                         f"delta_ns {params.delta_ns:g}: the ground cluster would "
                         "merge into the body cluster")
    # ground reflections are uncorrelated with the around-body wave:
    # independent seed streams for the two components
    child_body, child_ground = seed.spawn(2)
    return _superpose(gen_body(params, child_body), gen_ground(params, child_ground))


def gen_ref(params: BanModelParams, num_clusters: int, seed) -> ChannelImpulseResponse:
    if num_clusters < 1:
        raise ValueError("num_clusters must be at least 1")
    rng = np.random.default_rng(seed)
    # Poisson cluster process: exponential inter-arrivals, first cluster at 0
    gaps = rng.exponential(params.mean_cluster_interarrival_ns, size=num_clusters - 1)
    tau = np.concatenate([[0.0], np.cumsum(gaps)])
    start_bins = np.round(tau / params.delta_ns).astype(int)
    # coincident starts after bin rounding would merge clusters; push apart
    for i in range(1, start_bins.size):
        if start_bins[i] <= start_bins[i - 1]:
            start_bins[i] = start_bins[i - 1] + 1
    n_bins = start_bins[-1] + params.num_bins_per_cluster
    taps = np.zeros(n_bins, dtype=complex)
    k = np.arange(params.num_bins_per_cluster)
    for l, (t_l, b_l) in enumerate(zip(tau, start_bins)):
        n_l = rng.standard_normal() if params.sigma_cluster_db > 0 else 0.0
        n_k = (
            rng.standard_normal(k.size)
            if params.sigma_ray_db > 0
            else np.zeros(k.size)
        )
        amp_db = (
            -params.gamma_cluster_db_per_ns * t_l
            - params.gamma_ray_db_per_ns * (t_l + k * params.delta_ns)
            + params.sigma_cluster_db * n_l
            + params.sigma_ray_db * n_k
        )
        amps = 10.0 ** (amp_db / 20.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k.size)
        taps[b_l : b_l + k.size] += amps * np.exp(1j * phases)
    # normalize total energy, then apply lognormal shadowing
    energy = np.sum(np.abs(taps) ** 2)
    taps /= np.sqrt(energy)
    if params.shadowing_sigma_db > 0:
        shadow_db = params.shadowing_sigma_db * rng.standard_normal()
        taps *= 10.0 ** (shadow_db / 20.0)
    return ChannelImpulseResponse(taps, list(start_bins))


def gen_indoor_ban(
    params: BanModelParams, num_clusters: int, seed
) -> ChannelImpulseResponse:
    child_out, child_ref = seed.spawn(2)
    return _superpose(gen_outdoor_ban(params, child_out),
                      gen_ref(params, num_clusters, child_ref))


def pcg64_state(seed) -> tuple[int, int]:
    """The PCG64 ``(state, inc)`` that ``default_rng(seed)`` starts from, by
    numpy's own seeding: the stream state the channel generators take."""
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


def draw_streams(seed: np.random.SeedSequence, indoor: bool) -> list[tuple[int, int]]:
    """The stream states of the draw that ``gen_outdoor_ban`` or
    ``gen_indoor_ban`` here makes from ``seed``: body and ground, then the
    reflections indoors."""
    if not indoor:
        return [pcg64_state(child) for child in seed.spawn(2)]
    child_out, child_ref = seed.spawn(2)
    return [*draw_streams(child_out, False), pcg64_state(child_ref)]


def first_cluster_slope(cir: ChannelImpulseResponse, delta_ns: float) -> float:
    """Fitted dB-per-ns slope of the first cluster, on bins delta_ns apart."""
    start = cir.cluster_starts[0]
    stop = cir.cluster_starts[1] if len(cir.cluster_starts) > 1 else cir.taps.size
    seg = cir.taps[start:stop]
    mask = np.abs(seg) > 0
    if mask.sum() < 2:
        return float("nan")
    delays = np.arange(seg.size)[mask] * delta_ns
    amp_db = 20.0 * np.log10(np.abs(seg[mask]))
    return float(np.polyfit(delays, amp_db, 1)[0])


def gbhds_streams(count: int, seed) -> tuple[np.random.Generator, np.random.Generator]:
    """The radius and angle generators behind ``gbhds_doa(params, count,
    seed)``: one stream, with the angles starting after the count radii."""
    angles = np.random.default_rng(seed)
    angles.bit_generator.advance(count)
    return np.random.default_rng(seed), angles


def sample_gbhds(params: GbhdsParams, count: int, seed) -> np.ndarray:
    """Scatterer positions around the mobile: array of (r, theta) rows."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=count)
    r = np.arctanh(u * np.tanh(params.a * params.radius_m)) / params.a
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.column_stack([r, theta])


def gbhds_doa(params: GbhdsParams, count: int, seed) -> np.ndarray:
    """DOA angles at a base station bs_distance_m from the mobile."""
    samples = sample_gbhds(params, count, seed)
    r, theta = samples[:, 0], samples[:, 1]
    # base station at origin, mobile at (D, 0); scatterer offset from mobile
    x = params.bs_distance_m + r * np.cos(theta)
    y = r * np.sin(theta)
    return np.arctan2(y, x)
