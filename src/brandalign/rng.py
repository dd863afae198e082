"""Labeled random substreams, and a Generator's draws made from its raw words.

All randomness in the package flows from one user-supplied 64-bit seed.
Each consumer derives its own generator from (seed, label, ...), so adding
a new consumer never perturbs the draws of an existing one.
"""

import zlib
from array import array

import numpy as np


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a Generator keyed by the seed plus a tuple of labels.

    Labels may be strings or integers; strings are hashed with crc32 so the
    derivation is stable across processes and platforms.
    """
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, str):
            entropy.append(zlib.crc32(label.encode("utf-8")))
        else:
            entropy.append(int(label) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


_RAW_WORDS_PER_DRAW = 4096  # sets when RawWords refills, not which words come out


class RawWords:
    """A Generator's integers and random draws, made from blocks of its raw
    64-bit words (bit_generator.random_raw) with numpy's results for PCG64.

    integers(0, m) draws nothing for m = 1. For m <= 2**32 it takes 32-bit
    words: a raw word's low half, then its high half, which carries over to
    the next integers call. A word w gives w * m >> 32, unless the low 32
    bits of w * m are below 2**32 % m and the next word is tried (Lemire,
    arXiv:1805.10941). Past 2**32 the same rule runs on whole raw words and
    64 bits. random() takes whole raw words and leaves a carried half where
    it is. Only the current block is kept.
    """

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._words, self._pos = [], 0  # the current block and its next word
        self._half = None  # the carried high half

    def integers(self, m: int) -> int:
        """Generator.integers(0, m)."""
        if m > 1 << 32:
            w, threshold = self._word() * m, (1 << 64) % m
            while w & 0xFFFFFFFFFFFFFFFF < threshold:
                w = self._word() * m
            return w >> 64
        threshold = (1 << 32) % m
        while m > 1:
            if self._half is None:
                w = self._word()
                w, self._half = w & 0xFFFFFFFF, w >> 32
            else:
                w, self._half = self._half, None
            w *= m
            if w & 0xFFFFFFFF >= threshold:
                return w >> 32
        return 0

    def random(self, k: int) -> list:
        """The k raw words of Generator.random(k), which gives each word as
        (raw >> 11) * 2**-53."""
        pos = self._pos
        out = self._words[pos:pos + k]
        self._pos = pos + len(out)
        if len(out) < k:  # past the block: the rest straight from the generator
            out += self._raw(k - len(out)).tolist()
        return out

    def _word(self) -> int:
        pos = self._pos
        if pos == len(self._words):  # past the block: refill
            self._words, pos = self._raw(_RAW_WORDS_PER_DRAW).tolist(), 0
        self._pos = pos + 1
        return self._words[pos]


def session_draws(rng: np.random.Generator, n: int, n_markets: int, lo: int, hi: int):
    """The draws of n sessions, each rng.integers(n_markets), then
    k = rng.integers(lo, hi + 1), then rng.random(k): market and length
    (intp arrays of n) and u, every session's uniforms in order."""
    market = np.empty(n, dtype=np.intp)
    length = np.empty(n, dtype=np.intp)
    words, raw = RawWords(rng), array("Q")
    for i in range(n):
        market[i] = words.integers(n_markets)
        length[i] = k = lo + words.integers(hi - lo + 1)
        raw.extend(words.random(k))
    return market, length, (np.frombuffer(raw, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53
