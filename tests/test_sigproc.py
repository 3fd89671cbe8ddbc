import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import sigproc
from bitstream import random_bits

ALL_SCHEMES = list(sigproc.SCHEMES.values())


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_constellation_invariants(scheme):
    pts = scheme.constellation
    assert pts.size == 2**scheme.bits_per_symbol
    assert len(set(pts)) == pts.size
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_qam16_gray_adjacency():
    pts = sigproc.QAM16.constellation
    spacing = 2.0 / np.sqrt(10.0)
    for a in range(16):
        for b in range(a + 1, 16):
            if abs(pts[a] - pts[b]) == pytest.approx(spacing, abs=1e-9):
                assert bin(a ^ b).count("1") == 1, (a, b)


def test_bpsk_mapping():
    out = sigproc.modulate(np.array([0, 1]), sigproc.BPSK)
    assert np.allclose(out, [1.0, -1.0])


def test_qam16_label_zero_is_corner():
    pt = sigproc.modulate(np.array([0, 0, 0, 0]), sigproc.QAM16)[0]
    assert abs(pt.real) == pytest.approx(3 / np.sqrt(10))
    assert abs(pt.imag) == pytest.approx(3 / np.sqrt(10))


def test_modulate_rejects_ragged_length():
    with pytest.raises(sigproc.PaddingRequiredError):
        sigproc.modulate(np.array([0, 1, 0]), sigproc.QAM16)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    scheme=st.sampled_from(ALL_SCHEMES),
)
def test_roundtrip_property(data, scheme):
    n_sym = data.draw(st.integers(min_value=0, max_value=64))
    bits = data.draw(
        st.lists(
            st.integers(0, 1),
            min_size=n_sym * scheme.bits_per_symbol,
            max_size=n_sym * scheme.bits_per_symbol,
        )
    )
    bits = np.asarray(bits, dtype=np.int8)
    back = sigproc.demodulate(sigproc.modulate(bits, scheme), scheme)
    assert np.array_equal(back, bits)


def test_demodulate_nearest_point():
    assert sigproc.demodulate(np.array([1.1 + 0.05j]), sigproc.BPSK).tolist() == [0]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_demodulate_exact_points(scheme):
    labels = sigproc.nearest_labels(scheme.constellation, scheme)
    assert np.array_equal(labels, np.arange(scheme.constellation.size))


def test_demodulate_tie_breaks_to_lowest_label():
    # 0 is equidistant from +1 (label 0) and -1 (label 1)
    assert sigproc.demodulate(np.array([0.0 + 0.0j]), sigproc.BPSK).tolist() == [0]


def test_awgn_infinite_ebn0_is_identity():
    tx = sigproc.modulate(random_bits(64, 0), sigproc.QAM16)
    assert np.array_equal(sigproc.add_awgn(tx, np.inf, sigproc.QAM16, 1), tx)


def test_awgn_variance_calibration():
    # QAM16 at 10 dB: per-dimension variance 1/(2*4*10) = 0.0125
    assert sigproc.noise_sigma(10.0, sigproc.QAM16) ** 2 == pytest.approx(0.0125)
    tx = np.zeros(10**6, dtype=complex)
    noisy = sigproc.add_awgn(tx, 10.0, sigproc.QAM16, 7)
    for part in (noisy.real, noisy.imag):
        assert np.var(part) == pytest.approx(0.0125, rel=0.01)


def test_awgn_deterministic_under_seed():
    tx = sigproc.modulate(random_bits(400, 3), sigproc.QAM16)
    a = sigproc.add_awgn(tx, 5.0, sigproc.QAM16, 42)
    b = sigproc.add_awgn(tx, 5.0, sigproc.QAM16, 42)
    assert np.array_equal(a, b)

