"""Stochastic channel generators for body-area links.

Covers the clustered outdoor/indoor BAN multipath models, log-distance
path loss with lognormal shadowing, the hyperbolically-distributed
scatterer geometry (GBHDS) with its DOA statistics, and convolution of
symbol streams with real taps, a fixed-order sum with no BLAS call.

Conventions: tap amplitudes decay in dB (decay rates enter with negative
sign), fading perturbations n_l/n_k are zero-mean unit-variance Gaussians
in dB, and the reflection model is energy-normalized before shadowing.
The BAN generators take one ``np.random.Generator`` per cluster component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(float).tiny
# the most complex128 taps numpy can allocate: their bytes fit in an intp
MAX_TAPS = np.iinfo(np.intp).max // np.dtype(complex).itemsize


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


@dataclass
class PathLossParams:
    a0_db: float = 35.2
    d0_m: float = 0.1
    exponent: float = 3.11
    sigma_db: float = 0.0  # no shadowing unless asked for


@dataclass
class GbhdsParams:
    a: float = 0.5
    radius_m: float = 100.0
    bs_distance_m: float = 1000.0


def _amplitudes(amp_db: np.ndarray) -> np.ndarray:
    """Ray amplitudes from their levels in dB."""
    amps = 10.0 ** (amp_db / 20.0)
    # a ray below the smallest normal float would be a silent zero tap,
    # fitted around as if the cluster had fewer rays
    if amps.min() < _TINY:
        raise ValueError("ray amplitudes underflow below the smallest normal float: "
                         "lower gamma_ray_db_per_ns, gamma_cluster_db_per_ns or the "
                         "fading sigmas")
    return amps


# the draws share the bins' delays kΔ and, with no fading, the rays' decay
# 10**(-γ·kΔ/20): each is built once per parameter set and is read only, so
# no draw can change another's.  A decay that fails its underflow check is
# not cached, and raises again on the next draw
@functools.lru_cache(maxsize=32)
def _delays(delta_ns: float, n_bins: int) -> np.ndarray:
    delays = np.arange(n_bins) * delta_ns
    delays.flags.writeable = False
    return delays


@functools.lru_cache(maxsize=32)
def _decay(gamma_ray_db_per_ns: float, delta_ns: float, n_bins: int) -> np.ndarray:
    amps = _amplitudes(-gamma_ray_db_per_ns * _delays(delta_ns, n_bins))
    amps.flags.writeable = False
    return amps


def _rays(amps: np.ndarray, unit_phases: np.ndarray) -> np.ndarray:
    """Complex rays from amplitudes and phases as fractions of a turn."""
    # 2*pi*U(0, 1) equals rng.uniform(0, 2*pi) bit for bit, stream included
    return amps * np.exp(1j * (2.0 * np.pi * unit_phases))


def gen_clusters(params: BanModelParams, rngs) -> np.ndarray:
    """One cluster of rays per Generator, as the rows of a (generators, bins)
    array; each decays at gamma_ray from its first bin."""
    n_bins = params.num_bins_per_cluster
    unit_phases = np.empty((len(rngs), n_bins))
    if params.sigma_ray_db > 0:
        fading = np.empty_like(unit_phases)
        for rng, fading_row, phase_row in zip(rngs, fading, unit_phases):
            # each generator draws its fading before its phases
            rng.standard_normal(out=fading_row)
            rng.random(out=phase_row)
        amps = _amplitudes(-params.gamma_ray_db_per_ns * _delays(params.delta_ns, n_bins)
                           + params.sigma_ray_db * fading)
    else:
        for rng, phase_row in zip(rngs, unit_phases):
            rng.random(out=phase_row)
        amps = _decay(params.gamma_ray_db_per_ns, params.delta_ns, n_bins)
    return _rays(amps, unit_phases)


def gen_outdoor_ban(params: BanModelParams, rngs) -> tuple[np.ndarray, list[int]]:
    """Taps and cluster start bins of the body cluster at bin 0 and the
    ground cluster at its delay, from the (body, ground) Generators; the
    delay rounds to a bin after 0."""
    shift = round(params.tau_ground_ns / params.delta_ns)
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
    # Poisson cluster process: exponential inter-arrivals, first cluster at 0;
    # the running sum adds in np.cumsum's order
    tau = [0.0]
    for gap in rng.exponential(params.mean_cluster_interarrival_ns,
                               size=num_clusters - 1).tolist():
        tau.append(tau[-1] + gap)
    # Python's round, like np.round, rounds half to even; a start past
    # MAX_TAPS, infinite ones included, is rounded from MAX_TAPS instead
    starts = [round(min(t / params.delta_ns, MAX_TAPS)) for t in tau]
    # coincident starts after bin rounding would merge clusters; push apart
    for i in range(1, num_clusters):
        starts[i] = max(starts[i], starts[i - 1] + 1)
    n_bins = params.num_bins_per_cluster
    if starts[-1] + n_bins > MAX_TAPS:
        raise ValueError(
            f"mean_cluster_interarrival_ns {params.mean_cluster_interarrival_ns:g} "
            f"drew a reflection cluster {tau[-1]:g} ns in: at delta_ns "
            f"{params.delta_ns:g} its taps pass the {MAX_TAPS} numpy can allocate")
    # per cluster, in this order: its fading draws, then its phases
    n_l = np.empty(num_clusters)
    n_k, unit_phases = np.empty((2, num_clusters, n_bins))
    for l in range(num_clusters):
        if params.sigma_cluster_db > 0:
            n_l[l] = rng.standard_normal()
        if params.sigma_ray_db > 0:
            rng.standard_normal(out=n_k[l])
        rng.random(out=unit_phases[l])
    t_l = np.array(tau)[:, None]
    amp_db = (-params.gamma_cluster_db_per_ns * t_l
              - params.gamma_ray_db_per_ns * (t_l + _delays(params.delta_ns, n_bins)))
    # a fading term that is off is left out: its zeros would change no amplitude
    if params.sigma_cluster_db > 0:
        amp_db += params.sigma_cluster_db * n_l[:, None]
    if params.sigma_ray_db > 0:
        amp_db += params.sigma_ray_db * n_k
    taps = np.zeros(starts[-1] + n_bins, dtype=complex)
    for start, rays in zip(starts, _rays(_amplitudes(amp_db), unit_phases)):
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
    outdoor, starts = gen_outdoor_ban(params, (body, ground))
    ref, ref_starts = gen_ref(params, num_clusters, reflection)
    taps = np.zeros(max(outdoor.size, ref.size), dtype=complex)
    taps[: outdoor.size] += outdoor
    taps[: ref.size] += ref
    return taps, sorted({*starts, *ref_starts})


def path_loss_db(d_m, params: PathLossParams, rng: np.random.Generator):
    """Log-distance path loss of each positive distance in `d_m`, an array
    or a float; with sigma_db > 0, plus one lognormal shadowing draw from
    `rng` per distance, in order (the stream of one scalar draw each)."""
    loss = params.a0_db + 10.0 * params.exponent * np.log10(d_m / params.d0_m)
    if params.sigma_db > 0:
        loss += params.sigma_db * rng.standard_normal(np.shape(d_m))
    return loss


# samples per block of the DOA histogram: the screen holds about six float64
# arrays of a block at once, so memory stays flat in count
_DOA_BLOCK = 1 << 14
# assumption A: numpy's float32 sin and cos of a float32 t in [0, 2pi] err by
# at most this much (test_float32_trig_meets_the_doa_screen_assumption)
_TRIG32_ERROR = 2.0**-20
_U = 2.0**-53  # the unit roundoff of float64


def _doa(params: GbhdsParams, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """DOA angles of the scatterers at radii r and angles theta around the
    mobile: exact from float64 angles, screened from float32 ones."""
    # base station at origin, mobile at (D, 0); scatterer offset from mobile
    return np.arctan2(r * np.sin(theta), params.bs_distance_m + r * np.cos(theta))


def gbhds_doa_histogram(
    params: GbhdsParams, count: int, edges: np.ndarray, radii: np.random.Generator,
    angles: np.random.Generator,
) -> np.ndarray:
    """Unit-mass histogram of count DOA angles over the increasing bin edges
    ``edges``, the mass per bin; the scatterers' radii are drawn from one
    stream and their angles from the other.  A bin holds edges[i] <= doa <
    edges[i + 1], the last one closed, as ``np.histogram`` counts the exact
    DOAs: those ``_doa`` takes from the float64 angles.

    Each block is screened first: its DOAs are taken from the angles rounded
    to float32, whose sine and cosine numpy computes more than ten times
    faster, and a sample whose screened DOA lies more than B from both edges
    of its bin is counted there.  The rest are recomputed exactly and binned
    by ``np.histogram``, so the counts do not depend on the float32 trig.

    The bound B, with u = 2**-53, D = bs_distance_m and rmax the larger of
    radius_m and the block's largest radius, which the float64 artanh of a
    draw can round past radius_m.  Assume (A) that numpy's float32 sin and
    cos of a float32 t in [0, 2 pi] err by at most 2**-20.  An angle below
    2 pi rounds to a float32 within 2 pi 2**-24 of it, and the float64 sin
    and cos err by less than 2u, so the float32 sine and cosine lie within
    e = 2**-20 + 2 pi 2**-24 + 2u of the float64 ones.  With their products
    and sum rounded, each coordinate of a screened point, and of an exact
    one against the true point, lies within Delta = rmax e + 3u (D + 2 rmax).
    The true point lies at least D - rmax from the base station at the
    origin, so the exact one lies at least rho + sqrt2 Delta from it, with
    rho = D - rmax - 3 sqrt2 Delta as computed: the third sqrt2 Delta, at
    least 4u D, covers the rounding of rho itself.  The screened point,
    sqrt2 Delta from the exact one, is then seen from the base station at
    most arcsin(sqrt2 Delta / (rho + sqrt2 Delta)) <= sqrt2 Delta / rho
    away in angle.  arctan2 adds its rounding, at most 4 ulps of pi / 2 (2**-50) on
    each side.  B is twice the sum, which covers the rounding of the
    screen's own subtractions.  Where rho <= 0, B is infinite: every sample
    of the block takes the exact pass."""
    bins = edges.size - 1
    # cell c of the screen is [cells[c], cells[c + 1]): bin c - 1, or the
    # outside of the edges for c = 0 and c = bins + 1
    cells = np.concatenate(([-np.inf], edges, [np.inf]))
    lower, upper = cells[:-1], cells[1:]
    span = edges[-1] - edges[0]
    e = _TRIG32_ERROR + 2 * np.pi * 2.0**-24 + 2 * _U
    counts = np.zeros(bins + 2, dtype=np.intp)  # per cell
    for start in range(0, count, _DOA_BLOCK):
        n = min(_DOA_BLOCK, count - start)
        r = np.arctanh(radii.uniform(0.0, 1.0, size=n)
                       * np.tanh(params.a * params.radius_m)) / params.a
        theta = angles.uniform(0.0, 2.0 * np.pi, size=n)
        rmax = max(params.radius_m, float(r.max()))
        delta = rmax * e + 3 * _U * (params.bs_distance_m + 2 * rmax)
        rho = params.bs_distance_m - rmax - 3 * np.sqrt(2) * delta
        bound = 2 * (np.sqrt(2) * delta / rho + 2.0**-49) if rho > 0 else np.inf
        doa = _doa(params, r, theta.astype(np.float32))
        # the cell as if the edges were even; a wrong guess fails the test
        # below, so uneven edges cost time, never a count.  Dividing by the
        # span first cannot overflow where bins / span would: a DOA range of
        # subnormal width runs
        c = np.clip((doa - edges[0]) / span * bins, -1.0, bins).astype(np.intp) + 1
        safe = (doa - lower[c] > bound) & (upper[c] - doa > bound)
        counts += np.bincount(c[safe], minlength=bins + 2)
        # the next block's screen is built without this one's
        del doa, c
        exact = ~safe
        counts[1:-1] += np.histogram(_doa(params, r[exact], theta[exact]), edges)[0]
    return counts[1:-1] / count


def apply_channel(signal: np.ndarray, taps: np.ndarray,
                  samples_per_symbol: int) -> np.ndarray:
    """Convolve a symbol stream, upsampled by zero insertion, with the real
    taps, in polyphase form: tap k adds its products in ascending k."""
    out = np.zeros(signal.size * samples_per_symbol + taps.size - 1, dtype=complex)
    for k, tap in enumerate(taps.tolist()):
        out[k::samples_per_symbol][: signal.size] += tap * signal
    return out
