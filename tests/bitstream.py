"""Seeded random bit streams for the tests."""

import numpy as np


def random_bits(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.int8)
