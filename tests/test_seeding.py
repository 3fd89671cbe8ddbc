"""``seeding.pcg64_states`` against numpy's own ``SeedSequence`` seeding.

numpy keeps ``SeedSequence`` and PCG64's seeding stream-compatible (NEP 19),
and the channel draws rely on that: every stream state must be the one
``default_rng(SeedSequence(entropy, spawn_key=key))`` starts from.  If
numpy's algorithm ever moves, these tests fail; they are never loosened.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim import seeding

# a key element of 2**32 or more is several words to SeedSequence
KEY_ELEMENTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
KEYS = st.integers(0, 3).flatmap(
    lambda depth: st.lists(st.tuples(*[KEY_ELEMENTS] * depth), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(entropy=st.integers(0, 2**128), keys=KEYS)
def test_streams_are_numpys_own(entropy, keys):
    # under errstate(all="raise"), numpy scalar overflow in the hash would raise
    with np.errstate(all="raise"):
        streams = seeding.pcg64_states(entropy, np.array(keys, dtype=np.uint64))
        assert len(streams) == len(keys)
        for key, stream in zip(keys, streams):
            seed = np.random.SeedSequence(entropy, spawn_key=key)
            state = np.random.PCG64(seed).state["state"]
            assert stream == (state["state"], state["inc"])
            expected, got = np.random.default_rng(seed), seeding.generator(stream)
            for draw in ("standard_normal", "random", "standard_exponential"):
                assert np.array_equal(getattr(got, draw)(8),
                                      getattr(expected, draw)(8)), (key, draw)


def test_rows_of_different_word_layouts_keep_their_order():
    # one key per layout, interleaved: each row gets its own key's state
    keys = [(2**32 + 1, 0), (3, 1), (5, 2**40), (2**33, 2**33), (7, 8)]
    streams = seeding.pcg64_states(9, np.array(keys, dtype=np.uint64))
    for key, stream in zip(keys, streams):
        state = np.random.PCG64(np.random.SeedSequence(9, spawn_key=key)).state
        assert stream == (state["state"]["state"], state["state"]["inc"])


def test_negative_entropy_and_keys_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        seeding.pcg64_states(-1, np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="non-negative"):
        seeding.pcg64_states(1, np.array([[0, -1]]))


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
        assert streams == tuple(
            (state["state"], state["inc"])
            for state in (np.random.PCG64(seed).state["state"] for seed in expected))
