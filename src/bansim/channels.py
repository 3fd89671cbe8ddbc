"""Stochastic channel generators for body-area links.

Covers the clustered outdoor/indoor BAN multipath models, log-distance
path loss with lognormal shadowing, the hyperbolically-distributed
scatterer geometry (GBHDS) with its DOA statistics, and convolution of
symbol streams with a channel response.

Conventions: tap amplitudes decay in dB (decay rates enter with negative
sign), fading perturbations n_l/n_k are zero-mean unit-variance Gaussians
in dB, and the reflection model is energy-normalized before shadowing.
The BAN generators take one ``np.random.Generator`` per cluster component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_TINY = np.finfo(float).tiny


@dataclass
class ChannelImpulseResponse:
    taps: np.ndarray  # complex amplitudes on a uniform delay grid
    cluster_starts: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self) -> None:
        if not np.isfinite(self.taps).all():
            raise ValueError("taps must be finite")
        if any(b <= a for a, b in zip(self.cluster_starts, self.cluster_starts[1:])):
            raise ValueError("cluster starts must be strictly increasing")
        if self.cluster_starts and not (
            0 <= self.cluster_starts[0] and self.cluster_starts[-1] < self.taps.size
        ):
            raise ValueError("cluster starts out of range")

    @property
    def energy(self) -> float:
        return float((np.abs(self.taps) ** 2).sum())


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
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.delta_ns <= 0:
            raise ValueError("bin size must be positive")
        if self.num_bins_per_cluster < 1:
            raise ValueError("num_bins_per_cluster must be at least 1")
        if self.mean_cluster_interarrival_ns <= 0:
            raise ValueError("mean cluster inter-arrival must be positive")
        if self.tau_ground_ns < 0:
            raise ValueError("ground delay must be non-negative")
        if min(self.gamma_cluster_db_per_ns, self.gamma_ray_db_per_ns) < 0:
            raise ValueError("decay rates must be non-negative")
        for name in ("sigma_cluster_db", "sigma_ray_db", "shadowing_sigma_db"):
            # the generators would read a negative spread as no fading
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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


def _rays(amp_db: np.ndarray, unit_phases: np.ndarray) -> np.ndarray:
    """Complex rays from amplitudes in dB and phases as fractions of a turn."""
    amps = 10.0 ** (amp_db / 20.0)
    # a ray below the smallest normal float would be a silent zero tap,
    # fitted around as if the cluster had fewer rays
    if amps.min() < _TINY:
        raise ValueError("ray amplitudes underflow below the smallest normal float: "
                         "lower gamma_ray_db_per_ns, gamma_cluster_db_per_ns or the "
                         "fading sigmas")
    # 2*pi*U(0, 1) equals rng.uniform(0, 2*pi) bit for bit, stream included
    return amps * np.exp(1j * (2.0 * np.pi * unit_phases))


def gen_clusters(params: BanModelParams, rngs) -> np.ndarray:
    """One cluster of rays per Generator, as the rows of a (generators, bins)
    array; each decays at gamma_ray from its first bin."""
    n_bins = params.num_bins_per_cluster
    amp_db = -params.gamma_ray_db_per_ns * (np.arange(n_bins) * params.delta_ns)
    fading, unit_phases = [], []
    for rng in rngs:
        # each generator draws its fading before its phases
        if params.sigma_ray_db > 0:
            fading.append(rng.standard_normal(n_bins))
        unit_phases.append(rng.random(n_bins))
    if fading:
        amp_db = amp_db + params.sigma_ray_db * np.array(fading)
    return _rays(amp_db, np.array(unit_phases))


def _ground_shift(params: BanModelParams) -> int:
    shift = round(params.tau_ground_ns / params.delta_ns)
    if shift == 0:
        raise ValueError(f"tau_ground_ns {params.tau_ground_ns:g} rounds to bin 0 at "
                         f"delta_ns {params.delta_ns:g}: the ground cluster would "
                         "merge into the body cluster")
    return shift


def _add_outdoor(taps: np.ndarray, params: BanModelParams, shift: int,
                 rngs) -> None:
    """Add the body cluster at bin 0, then the ground cluster at bin shift."""
    # ground reflections are uncorrelated with the around-body wave:
    # independent streams for the two components
    body, ground = gen_clusters(params, rngs)
    taps[: body.size] += body
    taps[shift : shift + ground.size] += ground


def gen_outdoor_ban(params: BanModelParams, rngs) -> ChannelImpulseResponse:
    """Body and ground clusters from the (body, ground) Generators."""
    shift = _ground_shift(params)
    taps = np.zeros(shift + params.num_bins_per_cluster, dtype=complex)
    _add_outdoor(taps, params, shift, rngs)
    return ChannelImpulseResponse(taps, [0, shift])


def gen_ref(params: BanModelParams, num_clusters: int,
            rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """Energy-normalized, shadowed reflection taps and their cluster start
    bins, from one Generator."""
    # Poisson cluster process: exponential inter-arrivals, first cluster at 0
    gaps = rng.exponential(params.mean_cluster_interarrival_ns, size=num_clusters - 1)
    tau = np.zeros(num_clusters)
    np.cumsum(gaps, out=tau[1:])
    # Python's round, like np.round, rounds half to even
    starts = [round(t / params.delta_ns) for t in tau.tolist()]
    # coincident starts after bin rounding would merge clusters; push apart
    for i in range(1, num_clusters):
        starts[i] = max(starts[i], starts[i - 1] + 1)
    n_bins = params.num_bins_per_cluster
    # per cluster, in this order: its fading draws, then its phases
    n_l, n_k, unit_phases = [], [], []
    for _ in range(num_clusters):
        if params.sigma_cluster_db > 0:
            n_l.append(rng.standard_normal())
        if params.sigma_ray_db > 0:
            n_k.append(rng.standard_normal(n_bins))
        unit_phases.append(rng.random(n_bins))
    t_l = tau[:, None]
    amp_db = (-params.gamma_cluster_db_per_ns * t_l
              - params.gamma_ray_db_per_ns * (t_l + np.arange(n_bins) * params.delta_ns))
    # a fading term that is off is left out: its zeros would change no amplitude
    if n_l:
        amp_db += params.sigma_cluster_db * np.array(n_l)[:, None]
    if n_k:
        amp_db += params.sigma_ray_db * np.array(n_k)
    taps = np.zeros(starts[-1] + n_bins, dtype=complex)
    for start, rays in zip(starts, _rays(amp_db, np.array(unit_phases))):
        taps[start : start + n_bins] += rays
    # normalize total energy, then apply lognormal shadowing
    taps /= np.sqrt((np.abs(taps) ** 2).sum())
    if params.shadowing_sigma_db > 0:
        shadow_db = params.shadowing_sigma_db * rng.standard_normal()
        taps *= 10.0 ** (shadow_db / 20.0)
    return taps, starts


def gen_indoor_ban(params: BanModelParams, num_clusters: int,
                   rngs) -> ChannelImpulseResponse:
    """Body, ground and reflection clusters from the (body, ground,
    reflection) Generators."""
    shift = _ground_shift(params)
    body, ground, reflection = rngs
    ref, ref_starts = gen_ref(params, num_clusters, reflection)
    taps = np.zeros(max(shift + params.num_bins_per_cluster, ref.size), dtype=complex)
    _add_outdoor(taps, params, shift, (body, ground))
    taps[: ref.size] += ref
    starts = sorted({0, shift, *ref_starts})
    return ChannelImpulseResponse(taps, starts)


def path_loss_db(d_m: float, params: PathLossParams, rng=None) -> float:
    """Log-distance path loss; with a Generator and sigma_db > 0, plus one
    lognormal shadowing draw from it."""
    if not 0.0 < d_m < np.inf:  # NaN fails both comparisons
        raise ValueError(f"distance must be finite and positive, got {d_m}")
    loss = params.a0_db + 10.0 * params.exponent * np.log10(d_m / params.d0_m)
    if rng is not None and params.sigma_db > 0:
        loss += params.sigma_db * rng.standard_normal()
    return float(loss)


# samples per block of the DOA histogram: the block np.histogram itself uses,
# so memory stays flat in count
_DOA_BLOCK = 1 << 16


def gbhds_block(params: GbhdsParams, n: int, radii: np.random.Generator,
                angles: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Radii and DOA angles of the next n scatterers around the mobile, with
    the radii drawn from one stream and the angles from the other."""
    r = np.arctanh(radii.uniform(0.0, 1.0, size=n)
                   * np.tanh(params.a * params.radius_m)) / params.a
    theta = angles.uniform(0.0, 2.0 * np.pi, size=n)
    # base station at origin, mobile at (D, 0); scatterer offset from mobile
    return r, np.arctan2(r * np.sin(theta), params.bs_distance_m + r * np.cos(theta))


def gbhds_doa_histogram(
    params: GbhdsParams, count: int, bins: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass histogram of DOA angles; returns (bin_edges, masses)."""
    lim = float(np.arcsin(params.radius_m / params.bs_distance_m))
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(-lim, lim))
    # one stream holds all count radius uniforms, then all count angle
    # uniforms; each uniform double takes one 64-bit output, so the angle
    # generator starts count outputs in
    seq = np.random.SeedSequence(seed)
    radii = np.random.Generator(np.random.PCG64(seq))
    angles = np.random.Generator(np.random.PCG64(seq).advance(count))
    counts = np.zeros(bins, dtype=np.intp)
    for start in range(0, count, _DOA_BLOCK):
        _, doa = gbhds_block(params, min(_DOA_BLOCK, count - start), radii, angles)
        counts += np.histogram(doa, bins, range=(-lim, lim))[0]
    return edges, counts / count


def apply_channel(
    signal: np.ndarray, taps: np.ndarray, samples_per_symbol: int = 1
) -> np.ndarray:
    """Convolve a symbol stream, upsampled by zero insertion, with the taps."""
    if samples_per_symbol > 1:
        up = np.zeros(signal.size * samples_per_symbol, dtype=complex)
        up[::samples_per_symbol] = signal
        signal = up
    return np.convolve(signal, taps)
