"""Next-item prediction evaluation: hits@k and MRR@k over cosine or
model-score rankings, in-brand and cross-brand (zero-shot through a mapping).

One prediction event per consecutive click pair (query -> truth). The
candidate pool is the query's market minus the query itself (or the whole
catalog with pool="global"); ties are broken by ascending hotel id so every
metric is bit-for-bit reproducible.
"""

import json
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .data import BrandMapping, DataError, HotelCatalog, SessionSet
from .model import EmbeddingSpace


class PredictionEvent(NamedTuple):
    query: str
    truth: str
    market_id: str


@dataclass
class MetricsReport:
    # rows keyed by (k, mode, setting) -> {"hits", "mrr", "n_events"}
    rows: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def hits(self, k: int, mode: str, setting: str) -> float:
        return self.rows[(k, mode, setting)]["hits"]

    def mrr(self, k: int, mode: str, setting: str) -> float:
        return self.rows[(k, mode, setting)]["mrr"]


class Events(Sequence):
    """Prediction events as catalog-index arrays. Event i predicts the click
    at[i] + 1 from the click at[i]: query and truth are their catalog rows
    (-1 for a truth outside the catalog, whose id clicks keeps), market the
    query's HotelCatalog.market_codes. Read one, it is a PredictionEvent."""

    def __init__(self, catalog: HotelCatalog, clicks: Sequence[str], at):
        self.catalog, self.clicks = catalog, clicks
        self.at = np.array(at, np.intp)
        rows = np.fromiter(map(catalog.index.get, clicks, repeat(-1)), np.intp,
                           len(clicks))
        self.query, self.truth = rows[self.at], rows[self.at + 1]
        unknown = self.query < 0
        if unknown.any():  # the first in input order raises the catalog's error
            catalog.market_of(clicks[self.at[np.argmax(unknown)]])
        self.market = catalog.market_codes[self.query]
        for a in (self.at, self.query, self.truth, self.market):  # shared by make_events
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, i) -> PredictionEvent:
        a = self.at[i]
        return PredictionEvent(self.clicks[a], self.clicks[a + 1],
                               self.catalog.market_ids[self.market[i]])


def make_events(sessions: SessionSet, catalog: HotelCatalog) -> Events:
    """One event per consecutive pair of distinct clicks of a session; an
    unknown query is the catalog's DataError. Built once per (split, catalog):
    a repeat call returns the same Events, another catalog replaces them."""
    if sessions._events is not None and sessions._events[0] is catalog:
        return sessions._events[1]
    clicks, ends = sessions.sessions.clicks, sessions.sessions.ends
    session = np.repeat(np.arange(len(sessions)), np.diff(ends, prepend=0))
    # a repeat (A A) is no event: the truth must differ from the query
    pair = (session[:-1] == session[1:]) & np.fromiter(
        map(operator.ne, clicks, clicks[1:]), bool, max(len(clicks) - 1, 0))
    events = Events(catalog, clicks, np.flatnonzero(pair))
    object.__setattr__(sessions, "_events", (catalog, events))
    return events


def _check_options(mode: str, pool: str):
    if mode not in ("cosine", "model"):
        raise ValueError(f"unknown mode {mode!r}")
    if pool not in ("market", "global"):
        raise ValueError(f"unknown pool {pool!r}")


class _MarketCache(NamedTuple):
    """Candidate table resolved against one embedding space: catalog rows,
    whether each has a vector, matrix the vectors (zero where absent), unit
    each row over its norm (zero where absent or zero). A row's norm ignores
    the rows beside it, so a gathered table keeps its bits."""
    rows: np.ndarray
    present: np.ndarray
    matrix: np.ndarray
    unit: np.ndarray

    @classmethod
    def resolve(cls, catalog: HotelCatalog, rows, get, dim: int):
        """The table of rows, get called once per row."""
        vecs = [get(catalog.hotel_ids[r]) for r in rows.tolist()]
        matrix = np.array([np.zeros(dim) if v is None else v for v in vecs]).reshape(-1, dim)
        norms = np.linalg.norm(matrix, axis=1)[:, None]
        return cls(rows, np.array([v is not None for v in vecs], bool), matrix,
                   np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0))


_BLOCK_CELLS = 2 ** 14  # score cells (queries x candidates) per block: 128 KB


def _scores(cache: _MarketCache, queries, mode: str) -> np.ndarray:
    """Score of every pool position for each query: the dot product of the
    vectors, or with mode="cosine" of the unit rows. One gemv per query, so
    a query's scores do not depend on the block it is scored in."""
    table = cache.unit if mode == "cosine" else cache.matrix
    return np.matmul(table[None], table[queries][:, :, None])[:, :, 0]


_ABSENT_KEY = np.iinfo(np.int64).max  # a candidate without an embedding
_NAN_KEY = _ABSENT_KEY - 1


def _keys(scores: np.ndarray) -> np.ndarray:
    """int64 order keys of scores, ascending as the score descends: the bits
    of -score + 0.0 (which folds -0.0 into 0.0) made monotone, and one key
    for every NaN, above every number's. Sorted with ties by position, they
    give the stable argsort of -score."""
    neg = np.negative(scores)
    neg += 0.0
    keys = neg.view(np.int64)
    flip = keys >> 63  # a negative float's order reversed
    flip &= _ABSENT_KEY
    keys ^= flip
    keys[np.isnan(scores)] = _NAN_KEY
    return keys


def _pool_keys(cache: _MarketCache, queries, mode: str) -> np.ndarray:
    """_keys of every pool position for each query, a candidate without an
    embedding keyed after all scored ones."""
    keys = _keys(_scores(cache, queries, mode))
    keys[:, ~cache.present] = _ABSENT_KEY
    return keys


def _orders(cache: _MarketCache, queries, mode: str) -> np.ndarray:
    """Each query's pool positions (its own among them) in rank order:
    ascending _pool_keys, ties by ascending position (hotel id)."""
    return np.argsort(_pool_keys(cache, queries, mode), axis=1, kind="stable")


def rank_candidates(event: PredictionEvent, space: EmbeddingSpace,
                    catalog: HotelCatalog, mode: str = "cosine",
                    pool: str = "market",
                    lookup=None) -> list[str]:
    """Full candidate ordering, by the keys the batched ranker counts:
    descending score, ties by ascending hotel id, candidates without an
    embedding at the end (also by ascending id). Unlike _event_ranks with a
    cap, every place in it is exact."""
    _check_options(mode, pool)
    if event.market_id not in catalog.market_ids:
        raise ValueError(f"market {event.market_id!r} is not in the catalog ({pool} pool)")
    code = catalog.market_ids.index(event.market_id)
    rows = catalog.members[code] if pool == "market" else catalog.id_order
    cache = _MarketCache.resolve(catalog, rows, lookup or space.vectors.get, space.dim)
    ids = [catalog.hotel_ids[r] for r in rows.tolist()]
    if event.query not in ids:
        where = (f"the pool of market {event.market_id!r}" if pool == "market"
                 else "the global pool")
        raise ValueError(f"query hotel {event.query!r} is not in {where}")
    q = ids.index(event.query)
    if not cache.present[q]:
        raise DataError(f"query hotel {event.query!r} missing from space")
    return [ids[i] for i in _orders(cache, np.array([q]), mode)[0] if i != q]


def _pool_ranks(cache: _MarketCache, q_pos, t_pos, mode: str, cap=None):
    """Truth ranks of events given as pool positions (the query's present),
    one more than the candidates ahead of the truth in _orders' order: a
    smaller _pool_keys key, or an equal one at a lower position, the query
    not counted.

    Ranks are exact up to cap (all of them with no cap or one past the pool);
    a later one is cap + 1. Each distinct query is scored once, and one
    partition puts the cap + 1 smallest keys of its row first, the largest of
    them, the row's threshold, last. A truth keyed past the threshold has cap
    others ahead. Every other truth counts the smaller keys among those first
    ones, plus the equal keys at lower positions over its full row: only a
    truth tied with the threshold, or whose key repeats among them, has any."""
    n = len(cache.present)
    last = n - 1 if cap is None else int(min(cap, n - 1))  # the threshold's place
    seen = np.zeros(n, bool)  # the distinct queries, and each event's among them
    seen[q_pos] = True
    queries, which = np.flatnonzero(seen), (np.cumsum(seen) - 1)[q_pos]
    step = max(1, _BLOCK_CELLS // n)
    order = np.argsort(which)  # events grouped by block
    ends = np.searchsorted(which[order], np.arange(0, len(queries) + step, step))
    ranks = np.empty(len(q_pos), np.intp)
    for b, lo in enumerate(range(0, len(queries), step)):
        keys = _pool_keys(cache, queries[lo:lo + step], mode)
        top = np.partition(keys, last, axis=1)
        thr = top[:, last]
        ev = order[ends[b]:ends[b + 1]]
        rows, t, q = which[ev] - lo, t_pos[ev], q_pos[ev]
        k_t, k_q = keys[rows, t], keys[rows, q]
        ahead = np.full(len(ev), last + 1)  # past the threshold
        inside = np.flatnonzero(k_t <= thr[rows])
        head, k = top[rows[inside], :last], k_t[inside, None]
        ahead[inside] = np.count_nonzero(head < k, axis=1)
        tie = inside[(k[:, 0] == thr[rows[inside]])
                     | (np.count_nonzero(head == k, axis=1) > 1)]
        ahead[tie] += np.count_nonzero((keys[rows[tie]] == k_t[tie, None])
                                       & (np.arange(n) < t[tie, None]), axis=1)
        ranks[ev] = 1 + ahead - ((k_q < k_t) | ((k_q == k_t) & (q < t)))
    return np.minimum(ranks, last + 1)  # a no-op unless last is the cap


def _event_ranks(events: Events, catalog: HotelCatalog, get, dim: int, mode: str,
                 skip_missing_query: bool = False, pool: str = "market", cap=None):
    """Rank of the truth for every evaluated event (1-based).

    Returns (ranks, skipped_count, missing_candidate_count), ranks a float
    array in input order. A rank is the truth's place in rank_candidates'
    order, which sorts the keys _pool_ranks counts: descending score, ties
    by ascending id, candidates without an embedding after all scored ones
    (by ascending id). Ranks are exact up to cap, the largest k a report
    reads (all of them with cap None); a later one, a miss at every such k,
    is cap + 1. A truth outside the pool (a click into another market)
    misses: rank inf.
    """
    _check_options(mode, pool)
    keys = events.market if pool == "market" else np.zeros(len(events), np.intp)
    ranks = np.zeros(len(events))  # 0: truth outside pool, -1: query absent
    missing_total = 0
    # the rows of every ranked pool resolved once; each pool gathers its own
    ranked = np.isin(catalog.market_codes, keys) | (pool == "global")
    table = _MarketCache.resolve(catalog, np.flatnonzero(ranked), get, dim)
    at = np.cumsum(ranked) - 1  # catalog row -> table position
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        pool_rows = catalog.members[key] if pool == "market" else catalog.id_order
        cache = _MarketCache(*(a[at[pool_rows]] for a in table))
        # catalog row -> pool position; the extra last slot is row -1's
        where = np.full(len(catalog) + 1, -1)
        where[cache.rows] = np.arange(len(cache.rows))
        q_pos, t_pos = where[events.query[rows]], where[events.truth[rows]]
        found = cache.present[q_pos]
        ranks[rows[~found]] = -1
        missing_total += int(np.count_nonzero(~cache.present) * np.count_nonzero(found))
        inside = found & (t_pos >= 0)
        ranks[rows[inside]] = _pool_ranks(cache, q_pos[inside], t_pos[inside], mode,
                                          cap)
    if not skip_missing_query and (ranks < 0).any():  # the first in input order
        query = events[int(np.argmax(ranks < 0))].query
        raise DataError(f"query hotel {query!r} missing from space")
    kept = ranks[ranks >= 0]
    kept[kept == 0] = math.inf
    return kept, len(events) - len(kept), missing_total


def _checked(ranks, k: int) -> tuple:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(ranks):
        raise ValueError("no events to evaluate")
    return np.asarray(ranks, float), min(k, sys.float_info.max)  # any k >= 1 compares


def hits_at_k(ranks, k: int) -> float:
    ranks, k = _checked(ranks, k)
    return int(np.count_nonzero(ranks <= k)) / len(ranks)


def mrr_at_k(ranks, k: int) -> float:
    ranks, k = _checked(ranks, k)
    return math.fsum((1.0 / ranks[ranks <= k]).tolist()) / len(ranks)


def _build_report(ranks, ks, mode, setting, metadata) -> MetricsReport:
    outside = int(np.count_nonzero(np.isinf(ranks)))
    if outside:  # only then, so reports of well-formed sessions keep their bytes
        metadata["truth_outside_pool"] = outside
    report = MetricsReport(metadata=metadata)
    for k in ks:
        report.rows[(k, mode, setting)] = {
            "hits": hits_at_k(ranks, k),
            "mrr": mrr_at_k(ranks, k),
            "n_events": len(ranks),
        }
    return report


def evaluate(test_sessions: SessionSet, space: EmbeddingSpace,
             catalog: HotelCatalog, mode: str = "cosine",
             ks=(10, 100), metadata: dict | None = None,
             pool: str = "market") -> MetricsReport:
    """In-brand evaluation over all consecutive-click events."""
    events = make_events(test_sessions, catalog)
    ranks, _, missing = _event_ranks(events, catalog, space.vectors.get, space.dim,
                                     mode, pool=pool, cap=max((1, *ks)))
    meta = {**(metadata or {}), "missing_candidates": missing}
    return _build_report(ranks, ks, mode, "in_brand", meta)


def cross_brand_evaluate(test_sessions: SessionSet, source_space: EmbeddingSpace,
                         mapping: BrandMapping, catalog: HotelCatalog,
                         mode: str = "cosine", ks=(10, 100),
                         metadata: dict | None = None,
                         pool: str = "market") -> MetricsReport:
    """Zero-shot evaluation: target-brand events scored with the source
    space through the inverse mapping. Unmapped candidates rank last;
    events with an unmapped query are skipped and counted."""
    events = make_events(test_sessions, catalog)

    def get(hid):
        src = mapping.to_source(hid)
        return None if src is None else source_space.vectors.get(src)

    ranks, skipped, missing = _event_ranks(events, catalog, get,
                                           source_space.dim, mode,
                                           skip_missing_query=True, pool=pool,
                                           cap=max((1, *ks)))
    if not len(ranks):
        raise ValueError("no evaluable events: every query was unmapped")
    meta = {**(metadata or {}), "skipped_events": skipped, "missing_candidates": missing}
    return _build_report(ranks, ks, mode, "cross_brand", meta)


def write_jsonl(rows, path):
    """One sorted-key JSON object per line: report.jsonl, curves and metrics."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, default=str) + "\n")


def write_metrics(report: MetricsReport, path):
    """One row per cell in (setting, mode, k) order, then any metadata."""
    rows = [{"setting": setting, "mode": mode, "k": k, **report.rows[k, mode, setting]}
            for k, mode, setting in sorted(report.rows, key=lambda key: key[::-1])]
    if report.metadata:
        rows.append({"metadata": report.metadata})
    write_jsonl(rows, path)
