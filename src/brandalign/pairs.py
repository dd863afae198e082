"""Skip-gram pair construction with market-restricted negative sampling."""

from dataclasses import dataclass

import numpy as np

from .data import ClickSession, HotelCatalog, SessionSet
from .rng import substream


@dataclass(frozen=True)
class TrainingPair:
    target: str
    context: str
    negatives: tuple[str, ...]


class PairSkipped(Exception):
    """No eligible negatives exist for this (target, context) pair."""


def make_pairs(session: ClickSession, window: int) -> list[tuple[str, str]]:
    """Positive pairs within a fixed window, position-major, offset-minor.

    Repeated clicks of the same hotel never produce (h, h) self-pairs.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    clicks = session.clicks
    out = []
    for i, target in enumerate(clicks):
        lo = max(0, i - window)
        hi = min(len(clicks), i + window + 1)
        for j in range(lo, hi):
            if j == i or clicks[j] == target:
                continue
            out.append((target, clicks[j]))
    return out


def sample_negatives(pool, target, context, n_neg: int,
                     rng: np.random.Generator) -> list:
    """Draw n_neg members of pool (the target's market: hotel ids or catalog
    indices alike) uniformly with replacement, excluding the target and
    context themselves.

    Raises PairSkipped when the eligible set is empty; the caller drops the pair.
    """
    if len(pool) - 1 - (context != target and context in pool) <= 0:
        raise PairSkipped("the target's market has no eligible negatives")
    # rejection sampling stays uniform over the eligible set
    out = []
    while len(out) < n_neg:
        for i in rng.integers(0, len(pool), size=n_neg - len(out)).tolist():
            if pool[i] != target and pool[i] != context:
                out.append(pool[i])
    return out


def build_epoch_stream(sessions: SessionSet, catalog: HotelCatalog,
                       window: int, n_neg: int, seed: int, epoch_index: int,
                       skip_counter: list | None = None):
    """Yield (target, context, *negatives) as catalog indices for one epoch.

    Sessions are shuffled deterministically by (seed, epoch_index); pairs that
    cannot receive negatives are skipped and counted into skip_counter[0].
    """
    index = catalog.index
    pools = {m: [index[h] for h in catalog.market_list(m)] for m in catalog.markets}
    order = substream(seed, "shuffle", epoch_index).permutation(len(sessions))
    neg_rng = substream(seed, "negatives", epoch_index)
    for si in order:
        for target, context in make_pairs(sessions.sessions[si], window):
            t, c = index[target], index[context]
            try:
                negs = sample_negatives(pools[catalog.market_of(target)], t, c,
                                        n_neg, neg_rng)
            except PairSkipped:
                if skip_counter is not None:
                    skip_counter[0] += 1
                continue
            yield (t, c, *negs)
