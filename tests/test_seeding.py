"""``seeding.child_streams`` against numpy's own ``SeedSequence`` seeding.

numpy keeps ``SeedSequence`` and PCG64's seeding stream-compatible (NEP 19),
and the channel draws rely on that: each Generator ``child_streams`` yields
must be the one ``default_rng(SeedSequence(entropy, spawn_key=(i, *tail)))``
builds, in state and in every draw.  ``seeding`` computes only the hash and
hands PCG64 the seed words, so these tests compare its Generators with
numpy's.  If numpy's algorithm ever moves, they fail; they are never
loosened.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import seeding

# a spawn-key element of 2**32 or more is several words to SeedSequence
TAIL_ELEMENTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
TAILS = st.integers(0, 2).flatmap(
    lambda depth: st.lists(st.tuples(*[TAIL_ELEMENTS] * depth), min_size=1, max_size=3))


def numpys(entropy, i, tail):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i, *tail)))


@settings(max_examples=300, deadline=None)
@given(entropy=st.integers(0, 2**200), count=st.integers(1, 3), tails=TAILS)
def test_streams_are_numpys_own(entropy, count, tails):
    # under errstate(all="raise"), numpy scalar overflow in the hash would raise
    with np.errstate(all="raise"):
        # every Generator is built before any draws: none depends on another
        draws = list(seeding.child_streams(entropy, count, tails))
        assert len(draws) == count
        for i, streams in enumerate(draws):
            assert len(streams) == len(tails)
            for tail, got in zip(tails, streams):
                expected = numpys(entropy, i, tail)
                for draw in ("standard_normal", "random", "standard_exponential"):
                    assert np.array_equal(getattr(got, draw)(8),
                                          getattr(expected, draw)(8)), (i, tail, draw)


@pytest.mark.parametrize("index", [2**32 - 1, 2**32, 2**40])
def test_indices_of_two_words_are_seeded_as_numpy_does(index):
    # the draws around the index cross a block edge, and at 2**32 a one-word
    # index becomes two words
    tails = [(0, 0), (1,), (2**33,)]
    start, stop = index - 2, index + 2
    got = list(seeding._streams(7, start, stop, tails))
    assert len(got) == stop - start
    for i, streams in zip(range(start, stop), got):
        for tail, stream in zip(tails, streams):
            assert stream.bit_generator.state == numpys(7, i, tail).bit_generator.state


def test_negative_entropy_and_keys_are_rejected():
    # numpy's word split of a negative int never ends
    with pytest.raises(ValueError, match="non-negative"):
        next(seeding.child_streams(-1, 2, [(0,)]))
    with pytest.raises(ValueError, match="non-negative"):
        next(seeding.child_streams(1, 2, [(0, -1)]))


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2049])
def test_child_streams_follow_the_spawn_tree(count):
    # seeded a block of 1024 children at a time; the counts sit on and
    # around the block edges
    tails = [(0, 0), (0, 1), (1,)]
    got = list(seeding.child_streams(12345, count, tails))
    assert len(got) == count
    for child, streams in zip(np.random.SeedSequence(12345).spawn(count), got):
        out, ref = child.spawn(2)
        expected = [*out.spawn(2), ref]
        assert [stream.bit_generator.state for stream in streams] == [
            np.random.PCG64(seed).state for seed in expected]
