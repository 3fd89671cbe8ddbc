"""Modulation/demodulation, hard-decision slicing and AWGN injection.

All constellations are normalized to unit average symbol energy and carry
Gray-coded bit labels; the constellation array is indexed by the integer
bit label, so nearest-point ties resolved by ``argmin`` automatically pick
the lowest label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _gray_inverse(g: int) -> int:
    n = 0
    while g:
        n ^= g
        g >>= 1
    return n


@dataclass(frozen=True)
class ModulationScheme:
    kind: str
    bits_per_symbol: int
    constellation: np.ndarray = field(repr=False)  # indexed by bit label


def _pam_levels(n_levels: int) -> np.ndarray:
    # symmetric odd-integer grid: -3,-1,1,3 for 4 levels
    return np.arange(-(n_levels - 1), n_levels, 2, dtype=float)


def _build_bpsk() -> np.ndarray:
    # bit 0 -> +1, bit 1 -> -1 (antipodal)
    return np.array([1.0 + 0j, -1.0 + 0j])


def _build_oqpsk() -> np.ndarray:
    # QPSK mapping at symbol rate; the half-symbol offset needs waveform
    # simulation and is dropped here.  One Gray bit per quadrature rail.
    pts = np.empty(4, dtype=complex)
    for label in range(4):
        b_i, b_q = (label >> 1) & 1, label & 1
        pts[label] = ((1 - 2 * b_i) + 1j * (1 - 2 * b_q)) / np.sqrt(2.0)
    return pts


def _build_qam16() -> np.ndarray:
    levels = _pam_levels(4)
    pts = np.empty(16, dtype=complex)
    for label in range(16):
        g_i, g_q = (label >> 2) & 3, label & 3
        i_idx = _gray_inverse(g_i)
        q_idx = _gray_inverse(g_q)
        pts[label] = (levels[i_idx] + 1j * levels[q_idx]) / np.sqrt(10.0)
    return pts


def _build_qam8() -> np.ndarray:
    # rectangular 2x4 cross: 4 Gray-coded in-phase levels, 1 quadrature bit
    levels = _pam_levels(4)
    pts = np.empty(8, dtype=complex)
    for label in range(8):
        b_row = (label >> 2) & 1
        g_col = label & 3
        i_idx = _gray_inverse(g_col)
        pts[label] = (levels[i_idx] + 1j * (1 - 2 * b_row)) / np.sqrt(6.0)
    return pts


BPSK = ModulationScheme("BPSK", 1, _build_bpsk())
OQPSK = ModulationScheme("OQPSK", 2, _build_oqpsk())
QAM8 = ModulationScheme("QAM8", 3, _build_qam8())
QAM16 = ModulationScheme("QAM16", 4, _build_qam16())

SCHEMES = {s.kind: s for s in (BPSK, OQPSK, QAM8, QAM16)}


def get_scheme(name: str) -> ModulationScheme:
    try:
        return SCHEMES[name.upper()]
    except KeyError:
        raise ValueError(f"unknown modulation scheme {name!r}") from None


class PaddingRequiredError(ValueError):
    """Bit stream length is not a multiple of bits_per_symbol."""


def modulate(bits: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    bits = np.asarray(bits)
    bps = scheme.bits_per_symbol
    if bits.size % bps:
        raise PaddingRequiredError(
            f"{bits.size} bits is not a multiple of {bps}; pad the stream"
        )
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = groups @ weights
    return scheme.constellation[labels]


def nearest_labels(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=complex)
    # argmin returns the first (lowest-label) minimizer, the documented tie-break
    dists = np.abs(symbols[:, None] - scheme.constellation[None, :])
    return np.argmin(dists, axis=1)


def demodulate(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    labels = nearest_labels(symbols, scheme)
    bps = scheme.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    bits = (labels[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(np.int8)


def slice_symbols(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Hard decisions: map each sample to its nearest constellation point."""
    return scheme.constellation[nearest_labels(symbols, scheme)]


def noise_sigma(ebn0_db: float, scheme: ModulationScheme) -> float:
    """Per-dimension noise standard deviation at unit symbol energy."""
    if np.isinf(ebn0_db):
        return 0.0
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return float(np.sqrt(1.0 / (2.0 * scheme.bits_per_symbol * ebn0)))


def add_awgn(
    symbols: np.ndarray, ebn0_db: float, scheme: ModulationScheme, seed: int
) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=complex)
    sigma = noise_sigma(ebn0_db, scheme)
    if sigma == 0.0:
        return symbols.copy()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(symbols.size, 2))
    return symbols + noise[:, 0] + 1j * noise[:, 1]
