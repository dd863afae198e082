import numpy as np
import pytest

from brandalign.rng import _RAW_WORDS_PER_DRAW, RawWords, session_draws, substream
from oracles import reference_session_draws


def test_same_labels_same_draws():
    a = substream(42, "shuffle", 3).random(8)
    b = substream(42, "shuffle", 3).random(8)
    assert np.array_equal(a, b)


def test_different_labels_different_draws():
    a = substream(42, "shuffle", 0).random(8)
    b = substream(42, "negatives", 0).random(8)
    c = substream(42, "shuffle", 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_different_seeds_different_draws():
    assert not np.array_equal(substream(1, "x").random(8),
                              substream(2, "x").random(8))


def test_adding_a_consumer_never_perturbs_existing_ones():
    before = substream(7, "split", "A").permutation(10)
    substream(7, "some-new-consumer").random(1000)
    after = substream(7, "split", "A").permutation(10)
    assert np.array_equal(before, after)


def test_accepts_integer_labels():
    a = substream(5, "epoch", 12).random(4)
    b = substream(5, "epoch", 12).random(4)
    assert np.array_equal(a, b)


# spans of integers(0, m): one value draws no word; 2**31 + 1 rejects about
# half of the 32-bit words, so that a carried half follows a rejection;
# 2**32 - 1 and 2**32 are the 32-bit rule's last spans; past 2**32 the rule
# takes whole raw words
SPANS_32 = [1, 2, 3, 5, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]
SPANS_64 = [2 ** 32 + 1, 2 ** 40, 2 ** 62 + 1, 2 ** 63 - 1]


@pytest.mark.parametrize("n_markets", SPANS_32 + SPANS_64)
def test_session_draws_match_the_per_session_generator_calls(n_markets):
    # about 2,000 sessions of 2-6 clicks take some 9,000 raw words, past two
    # block refills; a span of 2**31 + 1 lengths would draw some 2**30
    # uniforms per session, so the test below takes those spans
    for seed in range(4):
        for lo, hi in ((2, 2), (2, 3), (2, 4), (2, 6)):
            got = session_draws(substream(seed, "sessions", "A"), 2000, n_markets, lo, hi)
            want = reference_session_draws(substream(seed, "sessions", "A"), 2000,
                                           n_markets, lo, hi)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (seed, lo, hi)


def _uniforms(raw):
    """Generator.random's values of raw words."""
    return (np.array(raw, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53


@pytest.mark.parametrize("first", SPANS_32 + SPANS_64)
def test_raw_words_match_generator_calls_at_every_span(first):
    # the per-session calls with every pair of spans: integers(first), then
    # d = integers(second), then random(1 + d % 4); then a random(k) longer
    # than a block, taken while a half is carried, which the next 32-bit
    # integers call takes (integers(2**32) gives the half itself)
    for seed, second in enumerate(SPANS_32 + SPANS_64):
        words, rng = RawWords(substream(seed, "x")), substream(seed, "x")
        raw, uniforms = [], []
        for _ in range(1500):  # past a block refill
            assert words.integers(first) == rng.integers(first)
            d = words.integers(second)
            assert d == rng.integers(second)
            raw += words.random(1 + d % 4)
            uniforms.append(rng.random(1 + d % 4))
        assert np.array_equal(_uniforms(raw), np.concatenate(uniforms)), second
        if words._half is None:
            assert words.integers(2 ** 32) == rng.integers(2 ** 32)
        k = 3 * _RAW_WORDS_PER_DRAW + 5
        assert np.array_equal(_uniforms(words.random(k)), rng.random(k)), second
        assert words.integers(2 ** 32) == rng.integers(2 ** 32), second
        assert words.integers(first) == rng.integers(first), second
