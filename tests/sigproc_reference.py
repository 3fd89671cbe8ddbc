"""References for ``bansim.sigproc``'s mapping and the hard decisions of its
``RailSlicer``.

``modulate`` is the mapping ``sigproc.modulate`` replaced: each symbol's
label is its row of bits times the binary weights, most significant first.

``argmin_labels`` is the distance-matrix slicer the rail slicer replaced:
argmin over the rounded ``|x - c|`` of every point, so within an ulp or so
of a midpoint it can pick a point that is not the nearest.  ``exact_label``
is the rule the rail slicer follows, in exact rational arithmetic: the
nearest point, and the lowest label among points exactly as near.
"""

import math
from fractions import Fraction

import numpy as np


_A, _B = 1.0 + 2.0**-52, 1.0 + 2.0**-51
_U = 5e-324
# rectangular grids whose midpoints are not floats: to even, 1 + 3 * 2**-53
# rounds up to 1 + 2**-51, 1.5 * 2**-1074 up to 2 * 2**-1074, and
# -1.5 * 2**-1074 down to -2 * 2**-1074
ROUNDING_GRIDS = {
    "near_one": np.array([complex(r, i) for r in (_A, _B) for i in (_A, _B)]),
    "subnormal": np.array([_U, 2 * _U, -_U, -2 * _U], dtype=complex),
}


def modulate(bits, scheme):
    bps = scheme.bits_per_symbol
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return scheme.constellation[groups @ weights]


def argmin_labels(symbols, constellation):
    symbols = np.asarray(symbols, dtype=complex)
    dists = np.abs(symbols[:, None] - constellation[None, :])
    return np.argmin(dists, axis=1)


def exact_label(x, constellation):
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise ValueError("cannot slice a non-finite sample")
    xr, xi = Fraction(x.real), Fraction(x.imag)
    dist = [(xr - Fraction(c.real)) ** 2 + (xi - Fraction(c.imag)) ** 2
            for c in np.asarray(constellation, dtype=complex).tolist()]
    return dist.index(min(dist))


def near_midpoint_grid(constellation, ulps=4):
    """Every combination of a real and an imaginary probe value: the levels
    of a rail, and the floats within ``ulps`` of each midpoint between
    adjacent levels (the float nearest the midpoint included)."""
    points = np.asarray(constellation, dtype=complex)
    rails = []
    for levels in (sorted(set(points.real.tolist())),
                   sorted(set(points.imag.tolist()))):
        values = set(levels)
        for a, b in zip(levels, levels[1:]):
            low = high = float((Fraction(a) + Fraction(b)) / 2)
            values.add(low)
            for _ in range(ulps):
                low = math.nextafter(low, -math.inf)
                high = math.nextafter(high, math.inf)
                values.update((low, high))
        rails.append(sorted(values))
    return np.array([complex(r, i) for r in rails[0] for i in rails[1]])
