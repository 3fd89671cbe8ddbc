"""Per-component references for the BAN channel draws in ``bansim.channels``,
the per-draw slope fit in ``bansim.harness.experiments``, and the full-array
GBHDS scatterer and DOA draws.

The generators build one ``(taps, cluster starts)`` pair per cluster
component, check that its taps are finite and its starts strictly increasing
within the taps, and superpose the pairs two at a time, checking each sum;
``first_cluster_slope`` fits one draw with ``np.polyfit``.
``gen_outdoor_ban`` and ``gen_indoor_ban`` must reproduce their taps and
cluster starts bit for bit, and the batched slope fit must agree with
``first_cluster_slope`` to rounding; ``test_channels.py`` checks that with
fading on and off.  ``draw_streams`` gives the
``default_rng`` Generators the program's generators take for one draw, each
seeded from a ``SeedSequence`` child as the references seed theirs.
``gbhds_doa`` builds all ``count`` DOA angles at once; ``np.histogram`` over
them must equal the block-streamed ``gbhds_doa_histogram`` byte for byte.
``apply_channel`` convolves one product at a time in Python's complex
arithmetic, in a fixed order; ``bansim.channels.apply_channel`` must equal it
bit for bit on every host, where ``np.convolve``'s sums follow the OpenBLAS
core.
"""

import numpy as np

from bansim.channels import BanModelParams, GbhdsParams

# a draw: complex taps on a uniform delay grid and its cluster start bins
Response = tuple[np.ndarray, list[int]]


def _checked(taps: np.ndarray, starts: list[int]) -> Response:
    """The draw, once its taps are finite and its starts strictly increasing
    bins within the taps."""
    assert np.isfinite(taps).all(), "taps must be finite"
    assert all(a < b for a, b in zip(starts, starts[1:])), starts
    assert 0 <= starts[0] and starts[-1] < taps.size, (starts, taps.size)
    return taps, starts


def _delayed_cluster(params: BanModelParams, delay_ns: float,
                     seed) -> Response:
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
    return _checked(taps, [shift])


def _superpose(a: Response, b: Response) -> Response:
    """Sum of two responses on the same delay grid, with both cluster sets."""
    (taps_a, starts_a), (taps_b, starts_b) = a, b
    taps = np.zeros(max(taps_a.size, taps_b.size), dtype=complex)
    taps[: taps_a.size] += taps_a
    taps[: taps_b.size] += taps_b
    return _checked(taps, sorted(set(starts_a) | set(starts_b)))


def gen_body(params: BanModelParams, seed) -> Response:
    return _delayed_cluster(params, 0.0, seed)


def gen_ground(params: BanModelParams, seed) -> Response:
    return _delayed_cluster(params, params.tau_ground_ns, seed)


def gen_outdoor_ban(params: BanModelParams, seed) -> Response:
    # the shift _delayed_cluster applies: at 0 bins the two clusters would merge
    if round(params.tau_ground_ns / params.delta_ns) == 0:
        raise ValueError(f"tau_ground_ns {params.tau_ground_ns:g} rounds to bin 0 at "
                         f"delta_ns {params.delta_ns:g}: the ground cluster would "
                         "merge into the body cluster")
    # ground reflections are uncorrelated with the around-body wave:
    # independent seed streams for the two components
    child_body, child_ground = seed.spawn(2)
    return _superpose(gen_body(params, child_body), gen_ground(params, child_ground))


def gen_ref(params: BanModelParams, num_clusters: int, seed) -> Response:
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
    return _checked(taps, start_bins.tolist())


def gen_indoor_ban(
    params: BanModelParams, num_clusters: int, seed
) -> Response:
    child_out, child_ref = seed.spawn(2)
    return _superpose(gen_outdoor_ban(params, child_out),
                      gen_ref(params, num_clusters, child_ref))


def draw_streams(seed: np.random.SeedSequence, indoor: bool) -> list[np.random.Generator]:
    """The ``default_rng`` Generators of the draw that ``gen_outdoor_ban`` or
    ``gen_indoor_ban`` here makes from ``seed``: body and ground, then the
    reflections indoors.  Spawning advances ``seed``, so each call on one
    ``SeedSequence`` gives the next draw's Generators."""
    if not indoor:
        return [np.random.default_rng(child) for child in seed.spawn(2)]
    child_out, child_ref = seed.spawn(2)
    return [*draw_streams(child_out, False), np.random.default_rng(child_ref)]


def first_cluster_slope(draw: Response, delta_ns: float) -> float:
    """Fitted dB-per-ns slope of the first cluster, on bins delta_ns apart."""
    taps, starts = draw
    seg = taps[starts[0] : starts[1] if len(starts) > 1 else taps.size]
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


def apply_channel(signal: np.ndarray, taps: np.ndarray,
                  samples_per_symbol: int) -> np.ndarray:
    """The stream, upsampled by zero insertion, convolved with the real taps:
    output n*samples_per_symbol + k adds taps[k] * signal[n] to 0j, for k
    ascending."""
    out = [0j] * (len(signal) * samples_per_symbol + len(taps) - 1)
    for k, tap in enumerate(taps.tolist()):
        for n, x in enumerate(signal.tolist()):
            out[n * samples_per_symbol + k] += tap * x
    return np.array(out, dtype=complex)
