"""Stochastic channel generators for body-area links.

Covers the clustered outdoor/indoor BAN multipath models, log-distance
path loss with lognormal shadowing, the hyperbolically-distributed
scatterer geometry (GBHDS) with its DOA statistics, and convolution of
symbol streams with a channel response.

Conventions: tap amplitudes decay in dB (decay rates enter with negative
sign), fading perturbations n_l/n_k are zero-mean unit-variance Gaussians
in dB, and the reflection model is energy-normalized before shadowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _spawn(seed, n: int) -> list[np.random.SeedSequence]:
    """Derive n independent seed streams; accepts ints or SeedSequences."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)


@dataclass
class ChannelImpulseResponse:
    taps: np.ndarray  # complex amplitudes on a uniform delay grid
    bin_size_ns: float
    cluster_starts: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=complex)
        if self.bin_size_ns <= 0:
            raise ValueError("bin size must be positive")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")
        if any(b <= a for a, b in zip(self.cluster_starts, self.cluster_starts[1:])):
            raise ValueError("cluster starts must be strictly increasing")
        if self.cluster_starts and not (
            0 <= self.cluster_starts[0] and self.cluster_starts[-1] < self.taps.size
        ):
            raise ValueError("cluster starts out of range")

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))

    def cluster_ids(self) -> np.ndarray:
        """Cluster index of each bin (bins before the first cluster get -1)."""
        starts = np.asarray(self.cluster_starts)
        return np.searchsorted(starts, np.arange(self.taps.size), side="right") - 1


@dataclass
class BanModelParams:
    delta_ns: float = 1.0
    num_bins_per_cluster: int = 16
    gamma_cluster_db_per_ns: float = 0.8  # inter-cluster decay
    gamma_ray_db_per_ns: float = 1.6  # intra-cluster decay
    sigma_cluster_db: float = 0.0
    sigma_ray_db: float = 0.0
    mean_cluster_interarrival_ns: float = 10.0
    tau_ground_ns: float = 5.0
    position: str = "front"
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.delta_ns <= 0:
            raise ValueError("bin size must be positive")
        if self.mean_cluster_interarrival_ns <= 0:
            raise ValueError("mean cluster inter-arrival must be positive")
        if self.tau_ground_ns < 0:
            raise ValueError("ground delay must be non-negative")
        if min(self.gamma_cluster_db_per_ns, self.gamma_ray_db_per_ns) < 0:
            raise ValueError("decay rates must be non-negative")


@dataclass
class PathLossParams:
    a0_db: float = 35.2
    d0_m: float = 0.1
    exponent: float = 3.11
    sigma_db: float = 6.1

    def __post_init__(self) -> None:
        if self.d0_m <= 0 or self.exponent <= 0 or self.sigma_db < 0:
            raise ValueError("invalid path-loss parameters")


@dataclass
class GbhdsParams:
    a: float = 0.5
    radius_m: float = 100.0
    bs_distance_m: float = 1000.0

    def __post_init__(self) -> None:
        if not (0.0 < self.a < 1.0):
            raise ValueError("spread parameter must lie in (0, 1)")
        if self.radius_m <= 0:
            raise ValueError("scatterer radius must be positive")
        if self.bs_distance_m <= self.radius_m:
            raise ValueError("base station must be outside the scatterer disc")


def _cluster_taps(
    n_bins: int,
    delta_ns: float,
    ray_decay_db_per_ns: float,
    sigma_ray_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    delays = np.arange(n_bins) * delta_ns
    amp_db = -ray_decay_db_per_ns * delays
    if sigma_ray_db > 0:
        amp_db = amp_db + sigma_ray_db * rng.standard_normal(n_bins)
    amps = 10.0 ** (amp_db / 20.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_bins)
    return amps * np.exp(1j * phases)


def gen_body(params: BanModelParams, seed) -> ChannelImpulseResponse:
    rng = np.random.default_rng(seed)
    taps = _cluster_taps(
        params.num_bins_per_cluster,
        params.delta_ns,
        params.gamma_ray_db_per_ns,
        params.sigma_ray_db,
        rng,
    )
    return ChannelImpulseResponse(taps, params.delta_ns, [0])


def gen_ground(params: BanModelParams, seed) -> ChannelImpulseResponse:
    rng = np.random.default_rng(seed)
    shift = int(round(params.tau_ground_ns / params.delta_ns))
    core = _cluster_taps(
        params.num_bins_per_cluster,
        params.delta_ns,
        params.gamma_ray_db_per_ns,
        params.sigma_ray_db,
        rng,
    )
    taps = np.concatenate([np.zeros(shift, dtype=complex), core])
    return ChannelImpulseResponse(taps, params.delta_ns, [shift])


def gen_outdoor_ban(params: BanModelParams, seed) -> ChannelImpulseResponse:
    # ground reflections are uncorrelated with the around-body wave:
    # independent seed streams for the two components
    child_body, child_ground = _spawn(seed, 2)
    body = gen_body(params, child_body)
    ground = gen_ground(params, child_ground)
    n = max(body.taps.size, ground.taps.size)
    taps = np.zeros(n, dtype=complex)
    taps[: body.taps.size] += body.taps
    taps[: ground.taps.size] += ground.taps
    starts = sorted(set(body.cluster_starts) | set(ground.cluster_starts))
    return ChannelImpulseResponse(taps, params.delta_ns, starts)


def gen_ref(params: BanModelParams, num_clusters: int, seed) -> ChannelImpulseResponse:
    if num_clusters < 1:
        raise ValueError("need at least one reflection cluster")
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
    return ChannelImpulseResponse(taps, params.delta_ns, list(start_bins))


def gen_indoor_ban(
    params: BanModelParams, num_clusters: int, seed
) -> ChannelImpulseResponse:
    child_out, child_ref = _spawn(seed, 2)
    outdoor = gen_outdoor_ban(params, child_out)
    ref = gen_ref(params, num_clusters, child_ref)
    n = max(outdoor.taps.size, ref.taps.size)
    taps = np.zeros(n, dtype=complex)
    taps[: outdoor.taps.size] += outdoor.taps
    taps[: ref.taps.size] += ref.taps
    starts = sorted(set(outdoor.cluster_starts) | set(ref.cluster_starts))
    return ChannelImpulseResponse(taps, params.delta_ns, starts)


def path_loss_db(d_m: float, params: PathLossParams, seed=None) -> float:
    if not 0.0 < d_m < np.inf:  # NaN fails both comparisons
        raise ValueError(f"distance must be finite and positive, got {d_m}")
    loss = params.a0_db + 10.0 * params.exponent * np.log10(d_m / params.d0_m)
    if seed is not None and params.sigma_db > 0:
        rng = np.random.default_rng(seed)
        loss += params.sigma_db * rng.standard_normal()
    return float(loss)


def gbhds_pdf(r_m, params: GbhdsParams):
    r = np.asarray(r_m, dtype=float)
    a, big_r = params.a, params.radius_m
    pdf = a / (np.tanh(a * big_r) * np.cosh(a * r) ** 2)
    pdf = np.where((r < 0) | (r > big_r), 0.0, pdf)
    return pdf if pdf.ndim else float(pdf)


def gbhds_cdf(r_m, params: GbhdsParams):
    r = np.clip(np.asarray(r_m, dtype=float), 0.0, params.radius_m)
    return np.tanh(params.a * r) / np.tanh(params.a * params.radius_m)


def sample_gbhds(params: GbhdsParams, count: int, seed) -> np.ndarray:
    """Scatterer positions around the mobile: array of (r, theta) rows."""
    if count < 1:
        raise ValueError("need at least one sample")
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


def gbhds_doa_histogram(
    params: GbhdsParams, count: int, bins: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass histogram of DOA angles; returns (bin_edges, masses)."""
    doa = gbhds_doa(params, count, seed)
    lim = float(np.arcsin(params.radius_m / params.bs_distance_m))
    masses, edges = np.histogram(doa, bins=bins, range=(-lim, lim))
    return edges, masses / count


def apply_channel(
    signal: np.ndarray, cir: ChannelImpulseResponse, samples_per_symbol: int = 1
) -> np.ndarray:
    if cir.taps.size == 0:
        raise ValueError("empty channel")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    signal = np.asarray(signal, dtype=complex)
    if samples_per_symbol > 1:
        up = np.zeros(signal.size * samples_per_symbol, dtype=complex)
        up[::samples_per_symbol] = signal
        signal = up
    return np.convolve(signal, cir.taps)
