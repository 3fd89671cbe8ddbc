"""numpy's ``SeedSequence`` hash, for the child streams of many draws at once.

``child_streams(entropy, count, tails)`` yields, for each draw i, the
Generators that ``np.random.default_rng(np.random.SeedSequence(entropy,
spawn_key=(i, *tail)))`` builds, one per tail.  ``SeedSequence`` (NEP 19,
after O'Neill's ``seed_seq_fe``) mixes the entropy words and then the
spawn-key words into a 4-word pool, and hashes the pool into the seed words,
all in 32-bit integer arithmetic that numpy keeps stream-compatible.  The
entropy part is the same for every draw, so it is mixed once, in Python ints;
the spawn-key words of a block of draws are mixed in uint32 arrays.  numpy's
``PCG64`` takes each draw's four seed words through the ``ISeedSequence``
interface and runs its own seeding step.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFF_FFFF
_POOL_WORDS = 4
_XSHIFT = 16
# SeedSequence's hash constants: pool mixing (A), state generation (B)
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# draws seeded per block: memory stays flat in the draw count, and since 2**32
# is a multiple of the block, the indices of a block are all one word or all two
_CHILD_BLOCK = 1024


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a word, a Python int or a uint32 array, and
    the hash constant after it.  Arrays wrap modulo 2**32 and raise no
    floating-point flag; numpy scalars would, so none is made."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> _XSHIFT, const


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return result ^ result >> _XSHIFT


def _absorb(pool: list, const: int, words) -> tuple[list, int]:
    """The pool and hash constant after mixing in words past the first four,
    each word hashed once per pool word."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_WORDS):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _int_words(value: int) -> list[int]:
    """numpy's split of a non-negative int into 32-bit words, low word first."""
    if value < 0:
        raise ValueError(f"seed words must come from non-negative ints, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _entropy_pool(entropy: int) -> tuple[list[int], int]:
    """The pool and hash constant of ``SeedSequence(entropy, spawn_key=k)``
    before the first word of k: the same for every spawn key."""
    words = _int_words(entropy)
    # SeedSequence pads the entropy to the pool size before a spawn key
    words += [0] * (_POOL_WORDS - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL_WORDS]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    return _absorb(pool, const, words[_POOL_WORDS:])


def _seed_words(pool: list[np.ndarray]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each sequence in the pool arrays,
    as the rows of a C-contiguous (n, 4) array: PCG64 reads the words as they
    lie in memory, so a strided view would seed another state."""
    const, halves = _INIT_B, []
    for i in range(2 * _POOL_WORDS):
        half, const = _hashmix(pool[i % _POOL_WORDS], const, _MULT_B)
        halves.append(half)
    # numpy's own pairing of the 32-bit halves, on any byte order
    return np.stack(halves, axis=1).astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Four precomputed seed words, in the interface numpy's bit generators
    seed themselves from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64) -> np.ndarray:
        # PCG64 asks for exactly these: n_words 4 of dtype uint64
        return self.words


def _streams(entropy: int, start: int, stop: int, tails: list[tuple[int, ...]]):
    """``child_streams`` for the draws start to stop - 1, seeded one block of
    ``_CHILD_BLOCK``-aligned indices at a time."""
    pool, const = _entropy_pool(entropy)
    # 1-element arrays: a Python int mixed with a uint32 array would overflow
    pool = [np.array([word], dtype=np.uint32) for word in pool]
    tail_words = [[np.array([word], dtype=np.uint32)
                   for element in tail for word in _int_words(element)]
                  for tail in tails]
    for block in range(start - start % _CHILD_BLOCK, stop, _CHILD_BLOCK):
        index = np.arange(max(start, block), min(stop, block + _CHILD_BLOCK),
                          dtype=np.uint64)
        index_words = [(index & _MASK32).astype(np.uint32)]
        if block >> 32:
            index_words.append((index >> 32).astype(np.uint32))
        indexed = _absorb(pool, const, index_words)
        seeds = [_seed_words(_absorb(*indexed, words)[0]) for words in tail_words]
        for rows in zip(*seeds):
            yield tuple(np.random.Generator(np.random.PCG64(_SeedWords(row)))
                        for row in rows)


def child_streams(entropy: int, count: int, tails: list[tuple[int, ...]]
                  ) -> Iterator[tuple[np.random.Generator, ...]]:
    """For each child i of ``SeedSequence(entropy).spawn(count)``, in order,
    the Generators of the spawn keys ``(i, *tail)``, one per tail."""
    return _streams(entropy, 0, count, tails)
