"""PCG64 stream states for many ``SeedSequence`` spawn keys in one pass.

``pcg64_states(entropy, keys)`` gives, for each row ``k`` of an (n, depth)
array of spawn keys, the PCG64 ``(state, inc)`` that
``np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=k))``
starts from.  numpy's ``SeedSequence`` (NEP 19, after O'Neill's
``seed_seq_fe``) mixes the entropy and key words into a 4-word pool and
hashes the pool into the seed words, all in 32-bit integer arithmetic that
numpy keeps stream-compatible.  Here that runs on uint32 arrays, one column
per key, and PCG64's seeding step follows in Python ints.  ``generator``
loads one state into the module's one ``Generator``, which costs less than
building a seed object and a generator per stream.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_WORDS = 4
_XSHIFT = 16
# SeedSequence's hash constants: pool mixing (A), state generation (B)
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


class _Hash:
    """SeedSequence's hashmix: xor with the constant, step the constant,
    multiply by it and fold the high half down.  Integer arrays wrap modulo
    2**32 and raise no floating-point flag; numpy scalars would."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _int_words(value: int) -> list[np.ndarray]:
    """numpy's split of a non-negative int into 32-bit words, low word first."""
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _seed_words(words: list[np.ndarray]) -> list[np.ndarray]:
    """``generate_state(4, uint64)`` of the SeedSequence whose entropy words
    are ``words``, each word an array with one entry per sequence."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _Hash(_INIT_B, _MULT_B)
    halves = [generate(pool[i % _POOL_WORDS]).astype(np.uint64) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(halves[0::2], halves[1::2])]


def pcg64_states(entropy: int, keys: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence(entropy,
    spawn_key=k))`` for each row ``k`` of an (n, depth) array of
    non-negative integer keys."""
    n, depth = keys.shape
    if keys.size and keys.min() < 0:
        raise ValueError("spawn keys must be non-negative")
    run = _int_words(entropy)
    if depth:
        # SeedSequence pads the entropy to the pool size before a spawn key
        run += [np.zeros(1, dtype=np.uint32)] * (_POOL_WORDS - len(run))
    # a key element of 2**32 or more is two words; bit j of a row's layout
    # is set when its element j takes two, and rows of one layout share a pass
    layouts = ((keys >> 32) != 0).dot(1 << np.arange(depth))
    seeds = np.empty((4, n), dtype=np.uint64)
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for layout in sorted(set(layouts.tolist())):
        rows = np.flatnonzero(layouts == layout)
        words = list(run)
        for j in range(depth):
            words.append((keys[rows, j] & _MASK32).astype(np.uint32))
            if layout >> j & 1:
                words.append((keys[rows, j] >> 32).astype(np.uint32))
        seeds[:, rows] = _seed_words(words)
    states = []
    # PCG64's seeding: state 0, inc 2*seq + 1, one step, add the initial
    # state, one more step
    for s_hi, s_lo, q_hi, q_lo in zip(*seeds.tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


# children seeded per block: memory stays flat in the child count
_CHILD_BLOCK = 1024


def child_streams(entropy: int, count: int,
                  tails: list[tuple[int, ...]]) -> Iterator[tuple[tuple[int, int], ...]]:
    """For each child i of ``SeedSequence(entropy).spawn(count)``, in order,
    the stream states of the spawn keys ``(i, *tail)``, one per tail."""
    for start in range(0, count, _CHILD_BLOCK):
        index = np.arange(start, min(start + _CHILD_BLOCK, count))
        yield from zip(*(pcg64_states(entropy, np.column_stack(
            [index, np.tile(tail, (index.size, 1))])) for tail in tails))


_BIT_GENERATOR = np.random.PCG64(0)
_GENERATOR = np.random.Generator(_BIT_GENERATOR)


def generator(stream: tuple[int, int]) -> np.random.Generator:
    """The module's one Generator, moved to the PCG64 ``(state, inc)`` of a
    stream.  Each call sets the whole state, so no draw depends on an earlier
    caller; a caller finishes one stream's draws before it asks for the next."""
    state, inc = stream
    _BIT_GENERATOR.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
    return _GENERATOR
