"""Next-item prediction evaluation: hits@k and MRR@k over cosine or
model-score rankings, in-brand and cross-brand (zero-shot through a mapping).

One prediction event per consecutive click pair (query -> truth). The
candidate pool is the query's market minus the query itself (or the whole
catalog with pool="global"); ties are broken by ascending hotel id so every
metric is bit-for-bit reproducible.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import BrandMapping, HotelCatalog, SessionSet
from .model import EmbeddingSpace


@dataclass(frozen=True)
class PredictionEvent:
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


def make_events(sessions: SessionSet, catalog: HotelCatalog) -> list[PredictionEvent]:
    events = []
    for s in sessions.sessions:
        for a, b in zip(s.clicks, s.clicks[1:]):
            if a == b:
                continue  # degenerate repeat, the truth must differ from the query
            events.append(PredictionEvent(query=a, truth=b,
                                          market_id=catalog.market_of(a)))
    return events


def event_pool(event: PredictionEvent, catalog: HotelCatalog,
               pool: str = "market") -> set[str]:
    """Candidate pool: the query's market (or the whole catalog) minus the query."""
    if pool == "market":
        members = catalog.market_members(event.market_id)
    elif pool == "global":
        members = set(catalog.index)
    else:
        raise ValueError(f"unknown pool {pool!r}")
    return members - {event.query}


def _score_block(matrix: np.ndarray, norms: np.ndarray, present: np.ndarray,
                 v_q: np.ndarray, mode: str) -> np.ndarray:
    dots = matrix @ v_q
    if mode == "model":
        return dots
    if mode != "cosine":
        raise ValueError(f"unknown mode {mode!r}")
    q_norm = float(np.linalg.norm(v_q))
    scores = np.zeros_like(dots)
    if q_norm > 0:
        nz = present & (norms > 0)
        scores[nz] = dots[nz] / (norms[nz] * q_norm)
    return scores


def rank_candidates(event: PredictionEvent, space: EmbeddingSpace,
                    catalog: HotelCatalog, mode: str = "cosine",
                    pool: str = "market",
                    lookup=None) -> list[str]:
    """Full candidate ordering: descending score, ties by ascending hotel id,
    candidates without an embedding at the end (also by ascending id)."""
    get = lookup if lookup is not None else space.vectors.get
    v_q = get(event.query)
    if v_q is None:
        raise ValueError(f"query hotel {event.query!r} missing from space")
    candidates = sorted(event_pool(event, catalog, pool))
    present, missing = [], []
    for c in candidates:
        v = get(c)
        if v is None:
            missing.append(c)
        else:
            present.append((c, v))
    if present:
        matrix = np.stack([v for _, v in present])
        norms = np.linalg.norm(matrix, axis=1)
        scores = _score_block(matrix, norms, np.ones(len(present), bool), v_q, mode)
    else:
        scores = np.zeros(0)
    ordered = sorted(range(len(present)), key=lambda i: (-scores[i], present[i][0]))
    return [present[i][0] for i in ordered] + missing


class _MarketCache:
    """Per-market (or whole-catalog) candidate table resolved against one
    embedding space."""

    def __init__(self, catalog: HotelCatalog, market_id: str, get, dim: int,
                 pool: str = "market"):
        if pool == "market":
            self.ids = catalog.market_list(market_id)  # ascending
        else:
            self.ids = tuple(sorted(catalog.index))
        vecs = [get(h) for h in self.ids]
        self.present = np.array([v is not None for v in vecs])
        self.matrix = np.stack([np.zeros(dim) if v is None else v for v in vecs])
        self.norms = np.linalg.norm(self.matrix, axis=1)
        # cosine query norms by 1-D norm, bit for bit as _score_block takes them
        self.q_norms = np.array([float(np.linalg.norm(v)) for v in self.matrix])
        self.n_missing = int(np.sum(~self.present))
        self.pos = {h: i for i, h in enumerate(self.ids)}


_BLOCK_CELLS = 2 ** 14  # score cells (events x candidates) per block: 128 KB


def _pool_ranks(cache: _MarketCache, q_pos, t_pos, mode: str):
    """Truth ranks of events given as pool positions, a block at a time. A
    truth without an embedding follows every scored candidate, by position."""
    present = cache.present
    ranks = np.sum(present) - 1 + np.cumsum(~present)[t_pos]
    step = max(1, _BLOCK_CELLS // len(present))
    scored = np.flatnonzero(present[t_pos])
    for b in (scored[lo:lo + step] for lo in range(0, len(scored), step)):
        qb, tb, rows = q_pos[b], t_pos[b], np.arange(len(b))
        # one gemv per event: bit-identical to _score_block's matrix @ v_q
        scores = np.matmul(cache.matrix[None], cache.matrix[qb][:, :, None])[:, :, 0]
        if mode == "cosine":
            qn = cache.q_norms[qb][:, None]
            scores = np.divide(scores, cache.norms * qn, out=np.zeros_like(scores),
                               where=present & (cache.norms > 0) & (qn > 0))
        elif mode != "model":
            raise ValueError(f"unknown mode {mode!r}")
        s_t = scores[rows, tb][:, None]
        ahead = (scores > s_t) | ((scores == s_t) & (np.arange(len(present)) < tb[:, None]))
        # the query is present and never its own candidate
        ranks[b] = 1 + np.count_nonzero(ahead & present, axis=1) - ahead[rows, qb]
    return ranks


def _event_ranks(events, catalog: HotelCatalog, get, dim: int, mode: str,
                 skip_missing_query: bool = False, pool: str = "market"):
    """Rank of the truth for every evaluated event (1-based).

    Returns (ranks, skipped_count, missing_candidate_count). Ranks computed
    here agree with rank_candidates: descending score, ties by ascending id,
    candidates without an embedding after all scored ones (by ascending id).
    A truth outside the pool (a click into another market) misses: rank inf.
    """
    caches: dict[str, _MarketCache] = {}
    groups: dict[str, list] = {}  # pool key -> [(rank slot, q_pos, t_pos)]
    ranks, skipped, missing_total = [], 0, 0
    for ev in events:
        key = ev.market_id if pool == "market" else "__global__"
        cache = caches.get(key)
        if cache is None:
            cache = caches[key] = _MarketCache(catalog, ev.market_id, get, dim, pool)
        q_pos = cache.pos[ev.query]
        if not cache.present[q_pos]:
            if skip_missing_query:
                skipped += 1
                continue
            raise ValueError(f"query hotel {ev.query!r} missing from space")
        missing_total += cache.n_missing
        t_pos = cache.pos.get(ev.truth)
        if t_pos is not None:
            groups.setdefault(key, []).append((len(ranks), q_pos, t_pos))
        ranks.append(math.inf)  # stays inf when the truth is outside the pool
    for key, rows in groups.items():
        slots, q_pos, t_pos = np.array(rows).T
        for slot, rank in zip(slots, _pool_ranks(caches[key], q_pos, t_pos, mode).tolist()):
            ranks[slot] = rank
    return ranks, skipped, missing_total


def hits_at_k(ranks, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranks:
        raise ValueError("no events to evaluate")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def mrr_at_k(ranks, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranks:
        raise ValueError("no events to evaluate")
    return math.fsum(1.0 / r if r <= k else 0.0 for r in ranks) / len(ranks)


def _build_report(ranks, ks, mode, setting, metadata) -> MetricsReport:
    outside = ranks.count(math.inf)
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
    ranks, _, missing = _event_ranks(events, catalog, space.vectors.get,
                                     space.dim, mode, pool=pool)
    meta = dict(metadata or {})
    meta["missing_candidates"] = missing
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
        if src is None:
            return None
        return source_space.vectors.get(src)

    ranks, skipped, missing = _event_ranks(events, catalog, get,
                                           source_space.dim, mode,
                                           skip_missing_query=True, pool=pool)
    if not ranks:
        raise ValueError("no evaluable events: every query was unmapped")
    meta = dict(metadata or {})
    meta["skipped_events"] = skipped
    meta["missing_candidates"] = missing
    return _build_report(ranks, ks, mode, "cross_brand", meta)


def write_metrics(report: MetricsReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        for (k, mode, setting) in sorted(report.rows, key=lambda t: (t[2], t[1], t[0])):
            cell = report.rows[(k, mode, setting)]
            fh.write(json.dumps({
                "setting": setting, "mode": mode, "k": k,
                "hits": cell["hits"], "mrr": cell["mrr"],
                "n_events": cell["n_events"],
            }, sort_keys=True) + "\n")
        if report.metadata:
            fh.write(json.dumps({"metadata": report.metadata},
                                sort_keys=True, default=str) + "\n")
