import numpy as np
import pytest
from scipy import stats

from bansim import channels


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
    cir = channels.gen_body(make_params(gamma_ray_db_per_ns=0.0), 1)
    assert np.allclose(np.abs(cir.taps), np.abs(cir.taps[0]))


def test_body_decay_law():
    cir = channels.gen_body(make_params(gamma_ray_db_per_ns=1.0), 2)
    rel_db = 20 * np.log10(np.abs(cir.taps) / np.abs(cir.taps[0]))
    assert np.allclose(rel_db, -np.arange(16), atol=1e-9)


def test_body_phase_uniformity():
    phases = np.concatenate(
        [
            np.angle(channels.gen_body(make_params(num_bins_per_cluster=1000), s).taps)
            for s in range(100)
        ]
    )
    counts, _ = np.histogram(phases, bins=20, range=(-np.pi, np.pi))
    assert stats.chisquare(counts).pvalue > 0.01


def test_generators_deterministic():
    p = make_params(sigma_ray_db=2.0, sigma_cluster_db=1.0, shadowing_sigma_db=3.0)
    for gen in (channels.gen_body, channels.gen_ground, channels.gen_outdoor_ban):
        assert np.array_equal(gen(p, 5).taps, gen(p, 5).taps)
    assert np.array_equal(
        channels.gen_ref(p, 4, 5).taps, channels.gen_ref(p, 4, 5).taps
    )
    assert np.array_equal(
        channels.gen_indoor_ban(p, 3, 5).taps, channels.gen_indoor_ban(p, 3, 5).taps
    )


def test_ground_is_shifted_body():
    cir = channels.gen_ground(make_params(tau_ground_ns=5.0), 3)
    assert cir.cluster_starts == [5]
    assert np.allclose(cir.taps[:5], 0.0)
    assert abs(cir.taps[5]) > 0


def test_ground_zero_delay_matches_body_structure():
    cir = channels.gen_ground(make_params(tau_ground_ns=0.0), 3)
    assert cir.cluster_starts == [0]
    assert cir.taps.size == 16


def test_outdoor_two_clusters_with_deterministic_gap():
    for seed in range(20):
        cir = channels.gen_outdoor_ban(make_params(), seed)
        assert len(cir.cluster_starts) == 2
        assert cir.cluster_starts[1] - cir.cluster_starts[0] == 5


def test_outdoor_is_superposition_of_components():
    p = make_params()
    seed = 11
    child_body, child_ground = np.random.SeedSequence(seed).spawn(2)
    body = channels.gen_body(p, child_body)
    ground = channels.gen_ground(p, child_ground)
    outdoor = channels.gen_outdoor_ban(p, seed)
    expect = np.zeros(outdoor.taps.size, dtype=complex)
    expect[: body.taps.size] += body.taps
    expect[: ground.taps.size] += ground.taps
    assert np.allclose(outdoor.taps, expect)


def test_ref_interarrival_mean():
    p = make_params(num_bins_per_cluster=1)
    gaps = []
    for seed in range(10_000):
        cir = channels.gen_ref(p, 3, seed)
        starts = np.asarray(cir.cluster_starts) * p.delta_ns
        gaps.extend(np.diff(starts))
    assert np.mean(gaps) == pytest.approx(10.0, rel=0.03)


def test_ref_energy_normalized_without_shadowing():
    cir = channels.gen_ref(make_params(), 4, 9)
    assert cir.energy == pytest.approx(1.0, abs=1e-9)


def test_ref_intra_cluster_regression_recovers_decay():
    p = make_params(gamma_cluster_db_per_ns=0.0)
    cir = channels.gen_ref(p, 1, 13)
    seg = cir.taps[:16]
    delays = np.arange(16) * p.delta_ns
    amp_db = 20 * np.log10(np.abs(seg))
    slope, _, r, *_ = stats.linregress(delays, amp_db)
    assert slope == pytest.approx(-1.6, abs=1e-9)
    assert r**2 > 0.999


def test_indoor_is_superposition():
    p = make_params()
    seed = 21
    child_out, child_ref = np.random.SeedSequence(seed).spawn(2)
    outdoor = channels.gen_outdoor_ban(p, child_out)
    ref = channels.gen_ref(p, 3, child_ref)
    indoor = channels.gen_indoor_ban(p, 3, seed)
    expect = np.zeros(indoor.taps.size, dtype=complex)
    expect[: outdoor.taps.size] += outdoor.taps
    expect[: ref.taps.size] += ref.taps
    assert np.allclose(indoor.taps, expect)
    assert set(indoor.cluster_starts) == set(outdoor.cluster_starts) | set(
        ref.cluster_starts
    )


def test_path_loss_anchor_and_log_distance():
    p = channels.PathLossParams(35.2, 0.1, 3.11, 6.1)
    assert channels.path_loss_db(0.1, p) == pytest.approx(35.2, abs=1e-12)
    assert channels.path_loss_db(1.0, p) == pytest.approx(66.3, abs=1e-9)
    assert channels.path_loss_db(2.0, p) == channels.path_loss_db(2.0, p)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            channels.path_loss_db(bad, p)


def test_gbhds_sampler_range_and_doa_bound():
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    samples = channels.sample_gbhds(p, 10_000, 17)
    assert np.all((samples[:, 0] >= 0) & (samples[:, 0] <= p.radius_m))
    doa = channels.gbhds_doa(p, 10_000, 17)
    assert np.max(np.abs(doa)) <= np.arcsin(p.radius_m / p.bs_distance_m) + 1e-12


def test_gbhds_doa_histogram_symmetric():
    p = channels.GbhdsParams(a=0.5, radius_m=100.0, bs_distance_m=1000.0)
    count, bins = 100_000, 41
    _, masses = channels.gbhds_doa_histogram(p, count, bins, 23)
    assert masses.sum() == pytest.approx(1.0)
    for i in range(bins // 2):
        left, right = masses[i], masses[bins - 1 - i]
        stderr = np.sqrt((left + right) / count)
        assert abs(left - right) <= 3 * stderr + 3 / count


def test_gbhds_invalid_params():
    with pytest.raises(ValueError):
        channels.GbhdsParams(a=1.5)
    with pytest.raises(ValueError):
        channels.GbhdsParams(radius_m=100.0, bs_distance_m=50.0)


def test_apply_channel_basics():
    cir = channels.ChannelImpulseResponse(np.array([1.0 + 0j]), 1.0, [0])
    x = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(channels.apply_channel(x, cir), x)
    delay = channels.ChannelImpulseResponse(np.array([0.0, 1.0]), 1.0, [0])
    assert np.allclose(channels.apply_channel(x, delay), [0, 1, 2, 3])
    two = channels.ChannelImpulseResponse(np.array([1.0, 0.5]), 1.0, [0])
    assert np.allclose(
        channels.apply_channel(np.array([1.0, 1.0]), two), [1.0, 1.5, 0.5]
    )
    with pytest.raises(ValueError):
        channels.apply_channel(x, channels.ChannelImpulseResponse(
            np.array([], dtype=complex), 1.0, []))


def test_cir_validation_and_csv():
    with pytest.raises(ValueError):
        channels.ChannelImpulseResponse(np.array([1.0]), 0.0, [0])
    with pytest.raises(ValueError):
        channels.ChannelImpulseResponse(np.array([1.0, 1.0]), 1.0, [1, 1])
    # strictly increasing starts inside the response are accepted
    channels.ChannelImpulseResponse(np.array([1.0, 2.0, 3.0]), 0.5, [0, 2])
