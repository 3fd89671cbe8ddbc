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

from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(float).tiny


def _require(params, rule: str, ok, names: tuple[str, ...]) -> None:
    """Reject the first field in `names` whose value fails `ok`, naming the
    field, which is also its config key, and the value it got."""
    for name in names:
        value = getattr(params, name)
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


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
        _require(self, "positive", lambda v: v > 0,
                 ("delta_ns", "mean_cluster_interarrival_ns"))
        _require(self, "at least 1", lambda v: v >= 1, ("num_bins_per_cluster",))
        # the generators would read a negative spread as no fading
        _require(self, "non-negative", lambda v: v >= 0,
                 ("tau_ground_ns", "gamma_cluster_db_per_ns", "gamma_ray_db_per_ns",
                  "sigma_cluster_db", "sigma_ray_db", "shadowing_sigma_db"))


@dataclass
class PathLossParams:
    a0_db: float = 35.2
    d0_m: float = 0.1
    exponent: float = 3.11
    sigma_db: float = 6.1

    def __post_init__(self) -> None:
        _require(self, "positive", lambda v: v > 0, ("d0_m", "exponent"))
        _require(self, "non-negative", lambda v: v >= 0, ("sigma_db",))


@dataclass
class GbhdsParams:
    a: float = 0.5
    radius_m: float = 100.0
    bs_distance_m: float = 1000.0

    def __post_init__(self) -> None:
        _require(self, "in (0, 1)", lambda v: 0.0 < v < 1.0, ("a",))
        _require(self, "positive", lambda v: v > 0, ("radius_m",))
        # the base station lies outside the scatterer disc
        _require(self, f"above radius_m {self.radius_m!r}",
                 lambda v: v > self.radius_m, ("bs_distance_m",))


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


def gen_outdoor_ban(params: BanModelParams, rngs) -> tuple[np.ndarray, list[int]]:
    """Taps and cluster start bins of the body cluster at bin 0 and the
    ground cluster at its delay, from the (body, ground) Generators."""
    shift = _ground_shift(params)
    # ground reflections are uncorrelated with the around-body wave:
    # independent streams for the two components
    body, ground = gen_clusters(params, rngs)
    taps = np.zeros(shift + params.num_bins_per_cluster, dtype=complex)
    taps[: body.size] += body
    taps[shift:] += ground
    return taps, [0, shift]


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
                   rngs) -> tuple[np.ndarray, list[int]]:
    """The outdoor draw plus the reflections: taps and cluster start bins,
    from the (body, ground, reflection) Generators."""
    body, ground, reflection = rngs
    # the outdoor draw first: a ground delay at bin 0 fails before any
    # reflection is drawn
    outdoor, starts = gen_outdoor_ban(params, (body, ground))
    ref, ref_starts = gen_ref(params, num_clusters, reflection)
    taps = np.zeros(max(outdoor.size, ref.size), dtype=complex)
    taps[: outdoor.size] += outdoor
    taps[: ref.size] += ref
    return taps, sorted({*starts, *ref_starts})


def path_loss_db(d_m, params: PathLossParams, rng=None):
    """Log-distance path loss of each distance in `d_m`, an array or a
    float; with a Generator and sigma_db > 0, plus one lognormal shadowing
    draw per distance, in order (the stream of one scalar draw each)."""
    bad = np.logical_not((0.0 < d_m) & (d_m < np.inf))  # NaN fails both
    if np.any(bad):
        raise ValueError("distance must be finite and positive, "
                         f"got {np.extract(bad, d_m)[0]}")
    loss = params.a0_db + 10.0 * params.exponent * np.log10(d_m / params.d0_m)
    if rng is not None and params.sigma_db > 0:
        loss += params.sigma_db * rng.standard_normal(np.shape(d_m))
    return loss


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
    params: GbhdsParams, count: int, bins: int, radii: np.random.Generator,
    angles: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass histogram of count DOA angles, drawn as ``gbhds_block``
    draws them; returns (bin_edges, masses)."""
    lim = float(np.arcsin(params.radius_m / params.bs_distance_m))
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(-lim, lim))
    counts = np.zeros(bins, dtype=np.intp)
    for start in range(0, count, _DOA_BLOCK):
        _, doa = gbhds_block(params, min(_DOA_BLOCK, count - start), radii, angles)
        # binned against the edge array, which sorts the block: the bins of
        # the range form (edges[i] <= x < edges[i + 1], the last one closed)
        # in about half its time
        counts += np.histogram(doa, edges)[0]
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
