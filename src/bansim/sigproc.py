"""Modulation/demodulation, hard-decision slicing and AWGN injection.

Every constellation is one rectangular Gray grid, indexed by the integer
bit label: the label's high bits pick the level of one rail (real or
imaginary part) and its low bits the level of the other, each rail's levels
Gray-coded from one table.  The points are divided by fixed scales, 1, √2,
√6 and √10, which give unit average symbol energy.  O-QPSK is the QPSK grid
at symbol rate: its half-symbol offset needs waveform simulation and is
dropped here.

Every hard decision picks the exact nearest constellation point, and the
lowest label among points exactly as near.  All constellations here are
rectangular grids, so the nearest point is the nearest level on each rail
(real and imaginary part) taken apart: ``RailSlicer`` compares each rail
with the midpoints between its levels and looks the label up in a table of
cells.  A sample exactly on a midpoint has a cell of its own, whose label
is the lowest of the tied points.  A non-finite sample has no nearest
point and raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _thresholds(levels: list[float]) -> tuple[list[float], list[float]]:
    """(lo, hi) per pair of adjacent sorted levels: a float x is nearer the
    upper level iff x > lo, and at least as near iff x >= hi.  lo == hi is
    the midpoint where it is a float; otherwise they are the floats on
    either side of it."""
    lo, hi = [], []
    for a, b in zip(levels, levels[1:]):
        # the midpoint num / den exactly, in integers: the denominators of
        # floats are powers of two (fractions would import decimal)
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        d = max(da, db)
        num, den = na * (d // da) + nb * (d // db), 2 * d
        m = num / den  # correctly rounded
        nm, dm = m.as_integer_ratio()
        above = nm * den - num * dm  # the sign of m - midpoint
        lo.append(m if above <= 0 else math.nextafter(m, -math.inf))
        hi.append(m if above >= 0 else math.nextafter(m, math.inf))
    return lo, hi


@dataclass(frozen=True)
class RailSlicer:
    """Nearest-point labels of a rectangular constellation, one rail at a time.

    A rail's cell index is ``count(x > lo) + count(x >= hi)`` over its
    thresholds: cell 2i is level i, cell 2i + 1 the exact midpoint between
    levels i and i + 1.  ``cell_labels`` is indexed by
    ``real cell * cols + imaginary cell``.
    """

    re: tuple[list[float], list[float]]  # (lo, hi) of the real rail
    im: tuple[list[float], list[float]]  # (lo, hi) of the imaginary rail
    cols: int
    cell_labels: np.ndarray

    def labels(self, symbols: np.ndarray) -> np.ndarray:
        real = np.ascontiguousarray(symbols.real)
        imag = np.ascontiguousarray(symbols.imag)
        if not (np.isfinite(real).all() and np.isfinite(imag).all()):
            raise ValueError("cannot slice a non-finite sample")
        return self.cell_labels.take(self.cells(real, imag))

    def cells(self, real: np.ndarray, imag: np.ndarray) -> np.ndarray:
        """Cell index per sample, in the smallest unsigned type that holds
        every one.  Nothing is checked: a NaN rail reads as cell 0."""
        dtype = np.min_scalar_type(self.cell_labels.size - 1)
        cells = _rail_cells(real, *self.re, dtype)
        cells *= self.cols
        cells += _rail_cells(imag, *self.im, dtype)
        return cells


def _rail_cells(values, lo, hi, dtype) -> np.ndarray:
    cells = np.zeros(values.shape, dtype)
    for a, b in zip(lo, hi):
        cells += values > a
        cells += values >= b
    return cells


def rail_slicer(constellation: np.ndarray) -> RailSlicer:
    """The slicer of a constellation indexed by label; every combination of
    its real and imaginary levels must be exactly one of its points."""
    if not np.isfinite(constellation).all():
        raise ValueError("constellation points must be finite")
    # sorted(set()) rather than np.unique, which imports numpy.ma
    re = sorted(set(constellation.real.tolist()))
    im = sorted(set(constellation.imag.tolist()))
    label = {(p.real, p.imag): k for k, p in enumerate(constellation.tolist())}
    if not len(re) * len(im) == len(label) == constellation.size:
        raise ValueError("constellation is not a rectangular grid")
    cols = 2 * len(im) - 1
    cell_labels = np.empty((2 * len(re) - 1) * cols, dtype=np.intp)
    for cell in range(cell_labels.size):
        r, c = divmod(cell, cols)
        # an odd cell is a tie between the levels on either side
        cell_labels[cell] = min(label[re[i], im[j]]
                                for i in {r // 2, (r + 1) // 2}
                                for j in {c // 2, (c + 1) // 2})
    return RailSlicer(_thresholds(re), _thresholds(im), cols, cell_labels)


@dataclass(frozen=True)
class ModulationScheme:
    kind: str
    constellation: np.ndarray = field(repr=False)  # indexed by bit label
    bits_per_symbol: int = field(init=False)
    slicer: RailSlicer = field(init=False, repr=False)
    label_bits: np.ndarray = field(init=False, repr=False)  # (label, bit) int8

    def __post_init__(self) -> None:
        size = self.constellation.size
        bps = size.bit_length() - 1
        if bps < 1 or size != 1 << bps:
            raise ValueError(f"a constellation needs 2**k points with k >= 1, got {size}")
        shifts = np.arange(bps - 1, -1, -1)
        bits = (np.arange(size)[:, None] >> shifts) & 1
        object.__setattr__(self, "bits_per_symbol", bps)
        object.__setattr__(self, "slicer", rail_slicer(self.constellation))
        object.__setattr__(self, "label_bits", bits.astype(np.int8))


# a rail's levels, indexed by its Gray bits, for 0, 1 and 2 bits
_GRAY_LEVELS = ([0.0], [1.0, -1.0], [-3.0, -1.0, 3.0, 1.0])


def _gray_grid(high_bits: int, low_bits: int, high_rail: str,
               scale: float) -> np.ndarray:
    """Points indexed by label: its high bits pick the level of `high_rail`
    ("real" or "imag"), its low bits the other rail's; divided by scale."""
    labels = np.arange(1 << (high_bits + low_bits))
    high = np.take(_GRAY_LEVELS[high_bits], labels >> low_bits)
    low = np.take(_GRAY_LEVELS[low_bits], labels & ((1 << low_bits) - 1))
    real, imag = (high, low) if high_rail == "real" else (low, high)
    return (real + 1j * imag) / scale


BPSK = ModulationScheme("BPSK", _gray_grid(1, 0, "real", 1.0))
OQPSK = ModulationScheme("OQPSK", _gray_grid(1, 1, "real", math.sqrt(2.0)))
# a 2 x 4 rectangle: one quadrature bit, four Gray in-phase levels
QAM8 = ModulationScheme("QAM8", _gray_grid(1, 2, "imag", math.sqrt(6.0)))
QAM16 = ModulationScheme("QAM16", _gray_grid(2, 2, "real", math.sqrt(10.0)))

SCHEMES = {s.kind: s for s in (BPSK, OQPSK, QAM8, QAM16)}


def get_scheme(name: str) -> ModulationScheme:
    try:
        return SCHEMES[name.upper()]
    except KeyError:
        raise ValueError(f"unknown modulation scheme {name!r}") from None


def modulate(bits: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Symbols of a bit array whose length is a multiple of bits_per_symbol."""
    bps = scheme.bits_per_symbol
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = groups @ weights
    return scheme.constellation[labels]


def nearest_labels(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Label of the nearest point per sample; the lowest label on a tie."""
    return scheme.slicer.labels(symbols)


def demodulate(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    labels = nearest_labels(symbols, scheme)
    return scheme.label_bits.take(labels, axis=0).reshape(-1)


def slice_symbols(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Hard decisions: map each sample to its nearest constellation point."""
    return scheme.constellation[nearest_labels(symbols, scheme)]


def noise_sigma(ebn0_db: float, scheme: ModulationScheme) -> float:
    """Per-dimension noise standard deviation at unit symbol energy."""
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    # Eb/N0 underflowed, to zero or a subnormal: the noise power
    # 1/(2 bps Eb/N0) would divide by zero or sit at or near overflow
    if ebn0 < np.finfo(float).tiny:
        raise ValueError(f"ebn0_db {ebn0_db:g} underflows: Eb/N0 = 10**(ebn0_db/10) "
                         "is below the smallest normal float")
    return float(np.sqrt(1.0 / (2.0 * scheme.bits_per_symbol * ebn0)))


def _complex_normal(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    """n complex samples whose real and imaginary parts are the consecutive
    pairs of one N(0, sigma) draw of 2n values: a view, no copy."""
    return rng.normal(0.0, sigma, size=(n, 2)).view(np.complex128)[:, 0]


def add_awgn(symbols: np.ndarray, ebn0_db: float, scheme: ModulationScheme,
             rng: np.random.Generator) -> np.ndarray:
    return symbols + _complex_normal(rng, noise_sigma(ebn0_db, scheme), symbols.size)
