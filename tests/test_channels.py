import tracemalloc

import numpy as np
import pytest
from scipy import stats

import channel_reference
from channel_reference import draw_streams
from bansim import channels, sigproc
from bansim.harness.config import parse_config
from bansim.harness.experiments import run_experiment


def make_params(**kw):
    base = dict(
        delta_ns=1.0,
        num_bins_per_cluster=16,
        gamma_cluster_db_per_ns=0.8,
        gamma_ray_db_per_ns=1.6,
        sigma_cluster_db=0.0,
        sigma_ray_db=0.0,
        mean_cluster_interarrival_ns=10.0,
        tau_ground_ns=5.0,
        shadowing_sigma_db=0.0,
    )
    base.update(kw)
    return channels.BanModelParams(**base)


def test_body_no_decay_no_fading_equal_magnitudes():
    [rays] = channels.gen_clusters(make_params(gamma_ray_db_per_ns=0.0),
                                   [np.random.default_rng(1)])
    assert np.allclose(np.abs(rays), np.abs(rays[0]))


def test_body_decay_law():
    [rays] = channels.gen_clusters(make_params(gamma_ray_db_per_ns=1.0),
                                   [np.random.default_rng(2)])
    rel_db = 20 * np.log10(np.abs(rays) / np.abs(rays[0]))
    assert np.allclose(rel_db, -np.arange(16), atol=1e-9)


def test_body_phase_uniformity():
    phases = np.angle(
        channels.gen_clusters(make_params(num_bins_per_cluster=1000),
                              [np.random.default_rng(seed) for seed in range(100)])
    ).ravel()
    counts, _ = np.histogram(phases, bins=20, range=(-np.pi, np.pi))
    assert stats.chisquare(counts).pvalue > 0.01


def test_generators_deterministic():
    p = make_params(sigma_ray_db=2.0, sigma_cluster_db=1.0, shadowing_sigma_db=3.0)

    # a Generator moves on as it draws: each call gets fresh ones of the seeds
    def streams():
        return [np.random.default_rng(seed) for seed in (5, 6, 7)]
    assert np.array_equal(channels.gen_clusters(p, streams()[:2]),
                          channels.gen_clusters(p, streams()[:2]))
    for gen in (lambda p, streams: channels.gen_outdoor_ban(p, streams[:2]),
                lambda p, streams: channels.gen_indoor_ban(p, 3, streams)):
        (taps_a, starts_a), (taps_b, starts_b) = gen(p, streams()), gen(p, streams())
        assert np.array_equal(taps_a, taps_b) and starts_a == starts_b
    (taps_a, starts_a), (taps_b, starts_b) = (channels.gen_ref(p, 4, streams()[0]),
                                              channels.gen_ref(p, 4, streams()[0]))
    assert np.array_equal(taps_a, taps_b) and starts_a == starts_b


def test_ground_is_shifted_body():
    # a ground delay past the body cluster leaves a gap of empty bins
    p = make_params(tau_ground_ns=30.0)
    seed = 3

    def streams():
        return draw_streams(np.random.SeedSequence(seed), indoor=False)
    _, ground = channels.gen_clusters(p, streams())
    taps, starts = channels.gen_outdoor_ban(p, streams())
    assert starts == [0, 30]
    assert np.all(taps[16:30] == 0)
    assert np.array_equal(taps[30:], ground)


def test_outdoor_two_clusters_with_deterministic_gap():
    for seed in range(20):
        _, starts = channels.gen_outdoor_ban(
            make_params(), draw_streams(np.random.SeedSequence(seed), False))
        assert len(starts) == 2
        assert starts[1] - starts[0] == 5


def test_outdoor_is_superposition_of_components():
    p = make_params()
    seed = 11

    def streams():
        return draw_streams(np.random.SeedSequence(seed), indoor=False)
    body, ground = channels.gen_clusters(p, streams())
    outdoor, _ = channels.gen_outdoor_ban(p, streams())
    expect = np.zeros(outdoor.size, dtype=complex)
    expect[:16] += body
    expect[5:] += ground
    assert np.array_equal(outdoor, expect)


def test_ref_interarrival_mean():
    p = make_params(num_bins_per_cluster=1)
    gaps = []
    for seed in range(10_000):
        _, starts = channels.gen_ref(p, 3, np.random.default_rng(seed))
        gaps.extend(np.diff(np.asarray(starts) * p.delta_ns))
    assert np.mean(gaps) == pytest.approx(10.0, rel=0.03)


def test_ref_energy_normalized_without_shadowing():
    taps, _ = channels.gen_ref(make_params(), 4, np.random.default_rng(9))
    assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_ref_intra_cluster_regression_recovers_decay():
    p = make_params(gamma_cluster_db_per_ns=0.0)
    taps, _ = channels.gen_ref(p, 1, np.random.default_rng(13))
    seg = taps[:16]
    delays = np.arange(16) * p.delta_ns
    amp_db = 20 * np.log10(np.abs(seg))
    slope, _, r, *_ = stats.linregress(delays, amp_db)
    assert slope == pytest.approx(-1.6, abs=1e-9)
    assert r**2 > 0.999


def test_indoor_is_superposition():
    p = make_params()
    seed = 21

    def streams():
        return draw_streams(np.random.SeedSequence(seed), indoor=True)
    outdoor, outdoor_starts = channels.gen_outdoor_ban(p, streams()[:2])
    ref, ref_starts = channels.gen_ref(p, 3, streams()[2])
    indoor, indoor_starts = channels.gen_indoor_ban(p, 3, streams())
    expect = np.zeros(indoor.size, dtype=complex)
    expect[: outdoor.size] += outdoor
    expect[: ref.size] += ref
    assert np.array_equal(indoor, expect)
    assert indoor_starts == sorted(set(outdoor_starts) | set(ref_starts))


# channel_stats draws against the per-component reference: fading off and
# on, per model; the indoor first cluster often ends after one tap, when a
# reflection cluster starts at bin 1, and its slope reads nan
REFERENCE_CASES = [
    pytest.param("outdoor_ban", {}, id="outdoor"),
    pytest.param("outdoor_ban", dict(sigma_ray_db=3.0, sigma_cluster_db=2.0,
                                     shadowing_sigma_db=4.0, delta_ns=0.5),
                 id="outdoor_fading"),
    pytest.param("indoor_ban", {}, id="indoor"),
    pytest.param("indoor_ban", dict(sigma_ray_db=3.0, sigma_cluster_db=2.0,
                                    shadowing_sigma_db=4.0), id="indoor_fading"),
]


@pytest.mark.parametrize("model,ban", REFERENCE_CASES)
def test_channel_stats_matches_reference(model, ban):
    seed, draws, num_clusters = 8, 300, 4
    text = (f"[common]\nseed = {seed}\n[channel_stats]\nmodel = {model}\n"
            f"draws = {draws}\nnum_clusters = {num_clusters}\n[ban]\n"
            + "".join(f"{key} = {value}\n" for key, value in ban.items()))
    [(_, table, _)] = run_experiment(parse_config(text, "channel_stats"))
    params = channels.BanModelParams(**ban)
    # spawning advances a SeedSequence, so each side gets its own tree
    ref_slopes = []
    for i, (new_seed, ref_seed) in enumerate(zip(
            np.random.SeedSequence(seed).spawn(draws),
            np.random.SeedSequence(seed).spawn(draws))):
        if model == "outdoor_ban":
            taps, starts = channels.gen_outdoor_ban(params, draw_streams(new_seed, False))
            ref = channel_reference.gen_outdoor_ban(params, ref_seed)
        else:
            taps, starts = channels.gen_indoor_ban(params, num_clusters,
                                                   draw_streams(new_seed, True))
            ref = channel_reference.gen_indoor_ban(params, num_clusters, ref_seed)
        ref_taps, ref_starts = ref
        assert np.array_equal(taps, ref_taps), i
        assert starts == ref_starts, i
        assert table.column("clusters")[i] == len(ref_starts)
        assert table.column("energy")[i] == float(np.sum(np.abs(ref_taps) ** 2))
        ref_slopes.append(channel_reference.first_cluster_slope(ref, params.delta_ns))
    slopes = np.array(table.column("intra_slope_db_per_ns"))
    assert np.array_equal(np.isnan(slopes), np.isnan(ref_slopes))
    np.testing.assert_allclose(slopes, ref_slopes, rtol=1e-12)
    assert [f"{v:.10g}" for v in slopes] == [f"{v:.10g}" for v in ref_slopes]
    if model == "indoor_ban":
        assert 0 < np.isnan(slopes).sum() < draws  # one-tap first clusters occur


@pytest.mark.parametrize("size", [1, 2, 7, 8, 16, 17, 1000])
def test_phase_draw_matches_uniform_draw(size):
    """2*pi*random(n) gives the values of uniform(0, 2*pi, n) and leaves the
    generator in the same state, so the draw after it is the same too.
    Drawn into a row of a preallocated array, as the generators draw,
    random and standard_normal give the values and the final state of
    random(n) and standard_normal(n)."""
    for seed in range(20):
        uniform_rng = np.random.default_rng(seed)
        random_rng = np.random.default_rng(seed)
        assert np.array_equal(uniform_rng.uniform(0.0, 2.0 * np.pi, size=size),
                              2.0 * np.pi * random_rng.random(size))
        assert uniform_rng.bit_generator.state == random_rng.bit_generator.state
        assert np.array_equal(uniform_rng.standard_normal(size),
                              random_rng.standard_normal(size))
        sized_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = np.empty((3, size))
        for row, draw in zip(rows, ("random", "standard_normal", "random")):
            getattr(row_rng, draw)(out=row)
            assert row.tobytes() == getattr(sized_rng, draw)(size).tobytes()
            assert row_rng.bit_generator.state == sized_rng.bit_generator.state


def test_start_bin_rounding_matches_numpy():
    """Python's round on each delay gives the bins np.round gave, halves too."""
    rng = np.random.default_rng(5)
    bins = np.concatenate([np.arange(40) + 0.5, -(np.arange(3) + 0.5),
                           np.cumsum(rng.exponential(10.0, 2000)) / 0.3])
    assert [round(b) for b in bins.tolist()] == np.round(bins).astype(int).tolist()


def test_ray_underflow_is_rejected():
    # a last ray at -6000 dB is still a normal float; at -10500 dB it would
    # underflow to a zero tap, which raises no floating-point flag
    def streams():
        return draw_streams(np.random.SeedSequence(1), indoor=False)
    channels.gen_outdoor_ban(make_params(gamma_ray_db_per_ns=400.0), streams())
    # the decay is cached once it passes the check; a failed check raises
    # again on the next draw with the same params
    for _ in range(2):
        with pytest.raises(ValueError, match="gamma_ray_db_per_ns"):
            channels.gen_outdoor_ban(make_params(gamma_ray_db_per_ns=700.0), streams())


def test_cached_decay_follows_the_params():
    # two params that share every cache key but the ray decay, drawn in turn:
    # each draw matches the reference's, which recomputes its decay
    fast, slow = make_params(gamma_ray_db_per_ns=2.4), make_params(gamma_ray_db_per_ns=0.7)
    for i, params in enumerate([fast, slow, fast, slow]):
        seed = np.random.SeedSequence(40 + i)
        ref_seed = np.random.SeedSequence(40 + i)
        taps, starts = channels.gen_indoor_ban(params, 3, draw_streams(seed, True))
        ref_taps, ref_starts = channel_reference.gen_indoor_ban(params, 3, ref_seed)
        assert taps.tobytes() == ref_taps.tobytes() and starts == ref_starts


def test_cached_decay_is_read_only():
    p = make_params()
    channels.gen_outdoor_ban(p, draw_streams(np.random.SeedSequence(2), False))
    for shared in (channels._delays(p.delta_ns, p.num_bins_per_cluster),
                   channels._decay(p.gamma_ray_db_per_ns, p.delta_ns,
                                   p.num_bins_per_cluster)):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.5


def test_path_loss_anchor_and_log_distance():
    # sigma_db = 0 draws no shadowing: the Generator's state does not move
    p = channels.PathLossParams(35.2, 0.1, 3.11, 0.0)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert channels.path_loss_db(0.1, p, rng) == pytest.approx(35.2, abs=1e-12)
    assert channels.path_loss_db(1.0, p, rng) == pytest.approx(66.3, abs=1e-9)
    assert channels.path_loss_db(2.0, p, rng) == channels.path_loss_db(2.0, p, rng)
    assert rng.bit_generator.state == state


def test_gbhds_sampler_range_and_doa_bound():
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    doa = channels.gbhds_block(p, 10_000, *channel_reference.gbhds_streams(10_000, 17))
    # the model's angles are the reference's, drawn from these radii
    r = channel_reference.sample_gbhds(p, 10_000, 17)[:, 0]
    assert doa.tobytes() == channel_reference.gbhds_doa(p, 10_000, 17).tobytes()
    assert np.all((r >= 0) & (r <= p.radius_m))
    assert np.max(np.abs(doa)) <= np.arcsin(p.radius_m / p.bs_distance_m) + 1e-12


def test_gbhds_doa_histogram_symmetric():
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    count, bins = 100_000, 41
    lim = float(np.arcsin(p.radius_m / p.bs_distance_m))
    masses = channels.gbhds_doa_histogram(
        p, count, np.linspace(-lim, lim, bins + 1),
        *channel_reference.gbhds_streams(count, 23))
    assert masses.sum() == pytest.approx(1.0)
    for i in range(bins // 2):
        left, right = masses[i], masses[bins - 1 - i]
        stderr = np.sqrt((left + right) / count)
        assert abs(left - right) <= 3 * stderr + 3 / count


@pytest.mark.parametrize("seed", [4, 99])
@pytest.mark.parametrize("count", [1, 7, 65_535, 65_536, 65_537, 100_003, 1_000_000])
def test_gbhds_doa_histogram_equals_the_full_array_histogram(count, seed):
    # the histogram streams in blocks of 2**16 samples; the counts sit on and
    # around the block edges
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    doa = channel_reference.gbhds_doa(p, count, seed)
    lim = float(np.arcsin(p.radius_m / p.bs_distance_m))
    for bins in (1, 61):
        masses, edges = np.histogram(doa, bins, range=(-lim, lim))
        # the runner's edges are the bytes of the range form's
        got_edges = np.linspace(-lim, lim, bins + 1)
        got_masses = channels.gbhds_doa_histogram(
            p, count, got_edges, *channel_reference.gbhds_streams(count, seed))
        assert got_edges.tobytes() == edges.tobytes()
        assert got_masses.tobytes() == (masses / count).tobytes()


@pytest.mark.parametrize("bins", [1, 2, 7, 61])
def test_doa_binning_against_edges_equals_the_range_form(bins):
    # gbhds_doa_histogram bins against its edge array; on every edge, at
    # +-lim, just inside and outside them, both forms count alike
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    lim = float(np.arcsin(p.radius_m / p.bs_distance_m))
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(-lim, lim))
    assert (edges[0], edges[-1]) == (-lim, lim)
    samples = np.concatenate([edges, np.nextafter(edges, np.inf),
                              np.nextafter(edges, -np.inf), [-lim, lim, lim, 0.0],
                              np.random.default_rng(bins).uniform(-lim, lim, 1000)])
    by_edges, _ = np.histogram(samples, edges)
    by_range, _ = np.histogram(samples, bins, range=(-lim, lim))
    assert by_edges.tolist() == by_range.tolist()
    # the two samples past +-lim fall in no bin
    assert by_edges.sum() == samples.size - 2


def test_gbhds_doa_histogram_memory_is_flat_in_count():
    # all 2e6 DOA angles at once take ~76 MB; the stream holds a few blocks
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    count, bins, seed = 2_000_000, 61, 8
    lim = float(np.arcsin(p.radius_m / p.bs_distance_m))
    edges = np.linspace(-lim, lim, bins + 1)
    tracemalloc.start()
    try:
        masses = channels.gbhds_doa_histogram(
            p, count, edges, *channel_reference.gbhds_streams(count, seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    ref_masses, ref_edges = np.histogram(channel_reference.gbhds_doa(p, count, seed),
                                         bins, range=(-lim, lim))
    assert edges.tobytes() == ref_edges.tobytes()
    assert masses.tobytes() == (ref_masses / count).tobytes()


def test_apply_channel_basics():
    x = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(channels.apply_channel(x, np.array([1.0 + 0j]), 1), x)
    assert np.allclose(channels.apply_channel(x, np.array([0j, 1.0]), 1), [0, 1, 2, 3])
    assert np.allclose(
        channels.apply_channel(np.array([1.0, 1.0], complex),
                               np.array([1.0, 0.5], complex), 1),
        [1.0, 1.5, 0.5]
    )
    # two samples per symbol: zeros between the symbols
    assert np.allclose(channels.apply_channel(np.array([1.0, 2.0], complex),
                                              np.array([1.0, 0.5], complex), 2),
                       [1.0, 0.5, 2.0, 1.0, 0.0])


@pytest.mark.parametrize("sps", [1, 2, 3, 4])
def test_apply_channel_is_the_fixed_order_sum(sps):
    rng = np.random.default_rng(sps)
    for n_taps in range(1, 7):
        taps = rng.normal(size=n_taps)
        for size in (0, 1, 37):
            signal = rng.normal(size=size) + 1j * rng.normal(size=size)
            got = channels.apply_channel(signal, taps, sps)
            ref = channel_reference.apply_channel(signal, taps, sps)
            assert got.tobytes() == ref.tobytes(), (n_taps, size)


def test_apply_channel_is_the_fixed_order_sum_on_a_qam16_stream():
    # a perfbench cma_qam16 stream at seed 1: 30 034 symbols over the 5-tap
    # reference channel at 3 samples per symbol.  np.convolve's sums differ
    # from the fixed order in 20 416 of its 90 106 samples where OpenBLAS's
    # dot fuses multiply-adds (core SkylakeX), in none under Prescott
    taps = np.array([0.227, 0.460, 0.688, 0.460, 0.227])
    bits = np.random.default_rng(1).integers(0, 2, size=30_034 * 4, dtype=np.int8)
    symbols = sigproc.modulate(bits, sigproc.QAM16)
    got = channels.apply_channel(symbols, taps, 3)
    ref = channel_reference.apply_channel(symbols, taps, 3)
    assert got.size == 90_106
    assert np.count_nonzero(got != ref) == 0
