"""Skip-gram pair construction with market-restricted negative sampling."""

from .data import ClickSession, HotelCatalog, SessionSet
from .rng import RawWords, substream


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


def sample_negatives(pool, target, context, n_neg: int, words: RawWords) -> list | None:
    """Draw n_neg members of pool (the target's market: hotel ids or catalog
    indices alike) uniformly with replacement, excluding the target and
    context themselves.

    A draw is pool[words.integers(m)], m = len(pool): numpy's
    Generator.integers(0, m). Returns None when the eligible set is empty;
    the caller drops the pair.
    """
    m = len(pool)
    # a pool of three distinct members keeps one whatever target and context are
    if m < 3 and m - 1 - (context != target and context in pool) <= 0:
        return None
    # rejection sampling stays uniform over the eligible set
    out = []
    while len(out) < n_neg:
        if (h := pool[words.integers(m)]) not in (target, context):
            out.append(h)
    return out


def build_epoch_stream(sessions: SessionSet, catalog: HotelCatalog,
                       window: int, n_neg: int, seed: int, epoch_index: int,
                       skip_counter: list | None = None):
    """Yield (target, context, *negatives) as catalog indices for one epoch.

    Sessions are shuffled deterministically by (seed, epoch_index); pairs that
    cannot receive negatives are skipped and counted into skip_counter[0].
    """
    index, market = catalog.index, catalog.market_codes.tolist()
    pools = [rows.tolist() for rows in catalog.members]
    order = substream(seed, "shuffle", epoch_index).permutation(len(sessions))
    words = RawWords(substream(seed, "negatives", epoch_index))
    for si in order:
        for target, context in make_pairs(sessions.sessions[si], window):
            t, c = index[target], index[context]
            negs = sample_negatives(pools[market[t]], t, c, n_neg, words)
            if negs is None:
                if skip_counter is not None:
                    skip_counter[0] += 1
                continue
            yield (t, c, *negs)
