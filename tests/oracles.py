"""Independent oracles the tests compare the package against.

Everything here is written straight-line from the definitions, on purpose
duplicating none of the library's code paths: a second forward pass for the
enriched embedding, a finite-difference gradient checker, a brute-force
ranking-metric calculator, the per-event ranking loop the blocked ranker must
reproduce exactly, the string-keyed per-pair training loop the integer-indexed
trainer must reproduce bit for bit, a json.loads-per-line session
loader the one-pass one must agree with, the string loop that the
index-array prediction events must reproduce, a click-at-a-time
session generator that the synthetic world's tables must reproduce, the
per-session Generator calls that the raw-word session draws must reproduce,
and a json.dumps-per-line session writer.
"""

import json
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit as _expit

from brandalign.data import HotelCatalog
from brandalign.model import (EmbeddingSpace, ModelParams, StepContext,
                              TrainConfig, TrainingDiverged, gradients,
                              init_params)
from brandalign.rng import substream
from brandalign.synth import KERNEL_SHARPNESS

EPS_NORM = 1e-12


class TrainingPair(NamedTuple):
    """One training step's hotel ids; equal to the (target, context,
    negatives) tuple that the package's TrainingDiverged carries."""
    target: str
    context: str
    negatives: tuple


class PairSkipped(Exception):
    """No eligible negatives exist for this (target, context) pair."""


def straight_line_embedding(hotel_id: str, params: ModelParams,
                            catalog: HotelCatalog) -> np.ndarray:
    """Naive recomputation of the enriched embedding from the definitions."""
    idx = catalog.index[hotel_id]
    record = catalog.hotels[idx]

    def norm_relu(y):
        n = float(np.sqrt(np.sum(y * y)))
        if n < 1e-12:
            return np.zeros_like(y)
        return np.array([max(c / n, 0.0) for c in y])

    v_c = norm_relu(params.w_c[idx])
    v_a = norm_relu(np.asarray(record.amenities) @ params.w_a)
    v_g = norm_relu(np.asarray(record.geo) @ params.w_g)
    z = np.concatenate([v_c, v_a, v_g]) @ params.w_e
    return np.array([max(c, 0.0) for c in z])


def pair_loss(pair: TrainingPair, params: ModelParams, catalog: HotelCatalog,
              cfg: TrainConfig, source_space: EmbeddingSpace | None,
              mapping) -> float:
    """Scalar per-pair loss recomputed from the definitions (SGNS +
    regularizer on the target hotel + weight decay on touched parameters)."""
    embed = {h: straight_line_embedding(h, params, catalog)
             for h in {pair.target, pair.context, *pair.negatives}}
    v_t = embed[pair.target]
    loss = float(np.logaddexp(0.0, -v_t @ embed[pair.context]))
    for n in pair.negatives:
        loss += float(np.logaddexp(0.0, v_t @ embed[n]))

    if cfg.lam > 0:
        src_id = mapping.to_source(pair.target) if mapping is not None else pair.target
        if src_id is not None:
            diff = float(np.linalg.norm(v_t - source_space.vectors[src_id]))
            loss += cfg.lam * (diff if cfg.reg_variant == "norm" else diff * diff)

    if cfg.l2_weight > 0:
        touched = {catalog.index[h] for h in {pair.target, pair.context,
                                              *pair.negatives}}
        sq = sum(float(np.sum(params.w_c[i] ** 2)) for i in touched)
        sq += float(np.sum(params.w_a ** 2) + np.sum(params.w_g ** 2)
                    + np.sum(params.w_e ** 2))
        loss += 0.5 * cfg.l2_weight * sq
    return loss


def finite_difference_max_rel_err(pair, params, catalog, cfg,
                                  source_space=None, mapping=None,
                                  step: float = 1e-5) -> float:
    """Compare the analytic per-pair gradient against central differences.

    Returns the max relative error over coordinates where the combined
    magnitude exceeds 1e-8, per the gradient-correctness contract.
    """
    ctx = StepContext(replace(params), catalog, cfg, source_space, mapping)
    _, idx, dy_c, _ = gradients(ctx, tuple(
        catalog.index[h] for h in (pair.target, pair.context, *pair.negatives)))
    dw_a, dw_g, dw_e = ctx.grad_views
    dense_wc = np.zeros_like(params.w_c)
    dense_wc[idx] = dy_c
    analytic = {("w_a",): dw_a, ("w_g",): dw_g, ("w_e",): dw_e,
                ("w_c",): dense_wc}

    max_err = 0.0
    for (name,), a_grad in analytic.items():
        mat = getattr(params, name)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = mat[ij]
            mat[ij] = orig + step
            up = pair_loss(pair, params, catalog, cfg, source_space, mapping)
            mat[ij] = orig - step
            down = pair_loss(pair, params, catalog, cfg, source_space, mapping)
            mat[ij] = orig
            numeric = (up - down) / (2 * step)
            a = float(a_grad[ij])
            if abs(a) + abs(numeric) > 1e-8:
                err = abs(a - numeric) / (abs(a) + abs(numeric))
                max_err = max(max_err, err)
    return max_err


def brute_force_metrics(events, space_vectors, catalog, mode, k,
                        pool="market"):
    """hits@k and mrr@k computed by explicit sorting, one event at a time."""
    hits = []
    rranks = []
    for ev in events:
        # each pool's members read off the hotel records themselves
        candidates = sorted({h.hotel_id for h in catalog.hotels
                             if pool != "market" or h.market_id == ev.market_id}
                            - {ev.query})
        v_q = space_vectors[ev.query]

        def score(cand):
            v = space_vectors.get(cand)
            if v is None:
                return None
            if mode == "model":
                return float(v_q @ v)
            nq = float(np.linalg.norm(v_q))
            nc = float(np.linalg.norm(v))
            if nq == 0.0 or nc == 0.0:
                return 0.0
            return float((v_q / nq) @ (v / nc))

        scored = [(c, score(c)) for c in candidates]
        present = sorted([(c, s) for c, s in scored if s is not None],
                         key=lambda t: (-t[1], t[0]))
        missing = [c for c, s in scored if s is None]
        ordering = [c for c, _ in present] + missing
        rank = ordering.index(ev.truth) + 1
        hits.append(1.0 if rank <= k else 0.0)
        rranks.append(1.0 / rank if rank <= k else 0.0)
    return sum(hits) / len(hits), sum(rranks) / len(rranks)


# ---------------------------------------------------------------------------
# reference event ranker: one gemv and a few reductions per event, exactly as
# the package ranked events before scoring them in blocks per market.
# _event_ranks() must return the same ranks, skip count and missing count.

def _market_members(catalog, market_id):
    """The market's hotel ids in ascending order, read off the records."""
    return sorted(h.hotel_id for h in catalog.hotels if h.market_id == market_id)


def _reference_pool(catalog, market_id, get, dim, pool):
    if pool == "market":
        ids = _market_members(catalog, market_id)
    else:
        ids = sorted(h.hotel_id for h in catalog.hotels)
    vecs = [get(h) for h in ids]
    present = np.array([v is not None for v in vecs])
    matrix = np.stack([v if v is not None else np.zeros(dim) for v in vecs])
    # cosine scores are dot products of unit rows: each row over its own
    # norm, zero rows (and absent ones) left zero
    norms = np.linalg.norm(matrix, axis=1)
    unit = np.zeros_like(matrix)
    nz = norms > 0
    unit[nz] = matrix[nz] / norms[nz, None]
    return present, matrix, unit, {h: i for i, h in enumerate(ids)}


def _reference_scores(matrix, unit, q_pos, mode):
    if mode == "model":
        return matrix @ matrix[q_pos]
    if mode != "cosine":
        raise ValueError(f"unknown mode {mode!r}")
    return unit @ unit[q_pos]


def reference_event_ranks(events, catalog, get, dim, mode,
                          skip_missing_query=False, pool="market"):
    """Returns (ranks, skipped, missing_total) like _event_ranks."""
    pools = {}
    ranks = []
    skipped = 0
    missing_total = 0
    for ev in events:
        key = ev.market_id if pool == "market" else "__global__"
        if key not in pools:
            pools[key] = _reference_pool(catalog, ev.market_id, get, dim, pool)
        present, matrix, unit, pos = pools[key]
        v_q = get(ev.query)
        if v_q is None:
            if skip_missing_query:
                skipped += 1
                continue
            raise ValueError(f"query hotel {ev.query!r} missing from space")
        q_pos = pos[ev.query]
        missing_total += int(np.sum(~present))
        t_pos = pos.get(ev.truth)
        if t_pos is None:
            ranks.append(math.inf)
            continue
        active = present.copy()
        active[q_pos] = False
        scores = _reference_scores(matrix, unit, q_pos, mode)
        if present[t_pos]:
            s_t = scores[t_pos]
            better = np.sum(active & (scores > s_t))
            tied_before = np.sum(active[:t_pos] & (scores[:t_pos] == s_t))
            rank = 1 + int(better) + int(tied_before)
        else:
            n_present = int(np.sum(active))
            miss_before = int(np.sum(~present[:t_pos]))
            rank = n_present + 1 + miss_before
        ranks.append(rank)
    return ranks, skipped, missing_total


# ---------------------------------------------------------------------------
# reference trainer: one TrainingPair of hotel ids per step, a gradient object
# per pair and a dict of touched W_c rows, exactly as the package trained
# before its integer-indexed step. train() must match it bit for bit.


def _make_pairs(session, window):
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


def _sample_negatives(members, target, context, n_neg, rng):
    """n_neg draws from members, the target's market in ascending id order."""
    excluded = {target, context}
    n_eligible = len(members) - sum(1 for e in excluded if e in members)
    if n_eligible <= 0:
        raise PairSkipped(f"the market of {target!r} has no eligible negatives")
    out = []
    while len(out) < n_neg:
        for i in rng.integers(0, len(members), size=n_neg - len(out)):
            candidate = members[i]
            if candidate not in excluded:
                out.append(candidate)
    return out


def reference_epoch_stream(sessions, catalog, window, n_neg, seed, epoch_index,
                           skip_counter=None):
    order = substream(seed, "shuffle", epoch_index).permutation(len(sessions))
    neg_rng = substream(seed, "negatives", epoch_index)
    market = {h.hotel_id: h.market_id for h in catalog.hotels}
    pools = {m: _market_members(catalog, m) for m in set(market.values())}
    for si in order:
        session = sessions.sessions[si]
        for target, context in _make_pairs(session, window):
            try:
                negs = _sample_negatives(pools[market[target]], target, context, n_neg,
                                         neg_rng)
            except PairSkipped:
                if skip_counter is not None:
                    skip_counter[0] += 1
                continue
            yield TrainingPair(target, context, tuple(negs))


def _softplus(x):
    return float(np.logaddexp(0.0, x))


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _resolve_source_vector(target_id, source_space, mapping):
    if mapping is not None:
        src_id = mapping.to_source(target_id)
        if src_id is None:
            return None
    else:
        src_id = target_id
    if source_space is None or src_id not in source_space.vectors:
        raise ValueError(
            f"hotel {target_id!r} is mapped but source space has no vector "
            f"for {src_id!r}")
    return source_space.vectors[src_id]


def _norm_relu_rows(y):
    norms = np.sqrt(np.einsum("ij,ij->i", y, y))
    safe = norms >= EPS_NORM
    inv = np.where(safe, 1.0 / np.where(safe, norms, 1.0), 0.0)
    yhat = y * inv[:, None]
    return np.maximum(yhat, 0.0), yhat, inv


def _norm_relu_back_rows(du, yhat, inv):
    masked = np.where(yhat > 0, du, 0.0)
    proj = np.einsum("ij,ij->i", yhat, masked)
    return (masked - yhat * proj[:, None]) * inv[:, None]


def reference_gradients(pair, params, amenities, geo, index, cfg,
                        source_space=None, mapping=None):
    """Returns ({w_c row: grad}, dw_a, dw_g, dw_e, loss)."""
    uniq = []
    pos_of = {}
    for hid in (pair.target, pair.context, *pair.negatives):
        if hid not in pos_of:
            pos_of[hid] = len(uniq)
            uniq.append(hid)
    idxs = np.array([index[h] for h in uniq])

    y_c = params.w_c[idxs]
    u_c, yhat_c, inv_c = _norm_relu_rows(y_c)
    a_in = amenities[idxs]
    u_a, yhat_a, inv_a = _norm_relu_rows(a_in @ params.w_a)
    g_in = geo[idxs]
    u_g, yhat_g, inv_g = _norm_relu_rows(g_in @ params.w_g)
    u = np.concatenate([u_c, u_a, u_g], axis=1)
    z = u @ params.w_e
    v = np.maximum(z, 0.0)

    t = pos_of[pair.target]
    c = pos_of[pair.context]
    v_t = v[t]
    s_pos = float(v_t @ v[c])
    loss = _softplus(-s_pos)
    g_pos = -_sigmoid(-s_pos)

    dv = np.zeros_like(v)
    dv[t] += g_pos * v[c]
    dv[c] += g_pos * v_t
    neg_pos = np.array([pos_of[n] for n in pair.negatives])
    s_neg = v[neg_pos] @ v_t
    loss += float(np.sum(np.logaddexp(0.0, s_neg)))
    g_neg = _expit(s_neg)
    dv[t] += g_neg @ v[neg_pos]
    np.add.at(dv, neg_pos, g_neg[:, None] * v_t[None, :])

    if cfg.lam > 0:
        v_src = _resolve_source_vector(pair.target, source_space, mapping)
        if v_src is not None:
            diff = v_t - v_src
            norm = float(np.linalg.norm(diff))
            if cfg.reg_variant == "norm":
                loss += cfg.lam * norm
                if norm >= EPS_NORM:
                    dv[t] += cfg.lam / norm * diff
            else:
                loss += cfg.lam * norm * norm
                dv[t] += 2.0 * cfg.lam * diff

    dz = np.where(z > 0, dv, 0.0)
    dw_e = u.T @ dz
    du = dz @ params.w_e.T
    w = cfg.sub_dim
    dy_c = _norm_relu_back_rows(du[:, :w], yhat_c, inv_c)
    dy_a = _norm_relu_back_rows(du[:, w:2 * w], yhat_a, inv_a)
    dy_g = _norm_relu_back_rows(du[:, 2 * w:], yhat_g, inv_g)
    dw_a = a_in.T @ dy_a
    dw_g = g_in.T @ dy_g

    mu = cfg.l2_weight
    if mu > 0:
        loss += 0.5 * mu * (float(np.einsum("ij,ij->", y_c, y_c))
                            + float(np.einsum("ij,ij->", params.w_a, params.w_a))
                            + float(np.einsum("ij,ij->", params.w_g, params.w_g))
                            + float(np.einsum("ij,ij->", params.w_e, params.w_e)))
        dy_c = dy_c + mu * y_c
        dw_a += mu * params.w_a
        dw_g += mu * params.w_g
        dw_e += mu * params.w_e

    w_c_rows = {int(idxs[i]): dy_c[i] for i in range(len(uniq))}
    return w_c_rows, dw_a, dw_g, dw_e, loss


class _ReferenceAdam:
    def __init__(self, params, cfg):
        self.m = {n: np.zeros_like(getattr(params, n))
                  for n in ("w_c", "w_a", "w_g", "w_e")}
        self.v = {n: np.zeros_like(getattr(params, n))
                  for n in ("w_c", "w_a", "w_g", "w_e")}
        self.t = 0
        self.cfg = cfg

    def update(self, params, grads):
        self.t += 1
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, self.cfg.learning_rate
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        w_c_rows, dense = grads[0], dict(zip(("w_a", "w_g", "w_e"), grads[1:4]))
        for name in ("w_a", "w_g", "w_e"):
            g = dense[name]
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            getattr(params, name)[...] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for idx, g in w_c_rows.items():
            m, v = self.m["w_c"][idx], self.v["w_c"][idx]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            params.w_c[idx] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _reference_sgd_update(params, grads, lr):
    w_c_rows, dw_a, dw_g, dw_e = grads[:4]
    for idx, g in w_c_rows.items():
        params.w_c[idx] -= lr * g
    params.w_a -= lr * dw_a
    params.w_g -= lr * dw_g
    params.w_e -= lr * dw_e


def reference_train(train_sessions, catalog, cfg, source_space=None,
                    mapping=None):
    """Returns (params, mean loss per epoch); raises TrainingDiverged like
    the package's train()."""
    params = init_params(catalog, cfg,
                         lambda label: substream(cfg.seed, "init", label))
    amenities = np.stack([h.amenities for h in catalog.hotels])
    geo = np.stack([h.geo for h in catalog.hotels])
    adam = _ReferenceAdam(params, cfg) if cfg.optimizer == "adam" else None
    epoch_losses = []
    step = 0
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        n_pairs = 0
        stream = reference_epoch_stream(train_sessions, catalog, cfg.window,
                                        cfg.n_neg, cfg.seed, epoch)
        for pair in stream:
            grads = reference_gradients(pair, params, amenities, geo,
                                        catalog.index, cfg, source_space, mapping)
            loss = grads[4]
            if not np.isfinite(loss):
                raise TrainingDiverged(step, pair, loss)
            if adam is not None:
                adam.update(params, grads)
            else:
                _reference_sgd_update(params, grads, cfg.learning_rate)
            loss_sum += loss
            n_pairs += 1
            step += 1
        epoch_losses.append(loss_sum / n_pairs)
    return params, epoch_losses


# ---------------------------------------------------------------------------
# session files: one json.loads per line, every click checked one by one,
# and one json.dumps per line

def reference_write_sessions(sessions, path):
    """A session file as write_sessions wrote it before its cached encodings:
    one json.dumps of each session's dict per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sessions:
            fh.write(json.dumps({"session_id": s.session_id, "brand": s.brand,
                                 "market_id": s.market_id, "clicks": list(s.clicks)}) + "\n")


def reference_load_sessions(path, hotel_market: dict, brand: str):
    """(sessions, warning) of a session file, as load_sessions read it
    before its one-pass fast path: sessions are plain (session_id, brand,
    market_id, clicks) tuples, warning is the one warning's text or None.
    hotel_market maps each catalog hotel id to its market id. A bad file
    raises ValueError with load_sessions' message."""
    sessions, outside = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{where}: malformed record: {exc}") from None
            try:
                if not isinstance(obj["clicks"], list):
                    raise TypeError(f"clicks must be a list of hotel ids, got "
                                    f"{type(obj['clicks']).__name__}")
                session_id = str(obj["session_id"])
                session_brand = str(obj["brand"])
                market_id = str(obj["market_id"])
                clicks = tuple(str(c) for c in obj["clicks"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{where}: bad session record: {exc}") from None
            if not clicks:
                raise ValueError(f"{where}: session {session_id!r} has no clicks")
            for c in clicks:
                if c not in hotel_market:
                    raise ValueError(f"{where}: session {session_id!r} references "
                                     f"unknown hotel {c!r}")
                if hotel_market[c] != market_id:
                    outside.append(f"{where}: session {session_id!r} click {c!r} "
                                   f"is outside market {market_id!r}")
            if session_brand != brand:
                raise ValueError(f"{where}: session {session_id!r} has brand "
                                 f"{session_brand!r}, expected {brand!r}")
            sessions.append((session_id, session_brand, market_id, clicks))
    warning = None
    if outside:
        warning = (f"{outside[0]} ({len(outside)} click(s) in this file are "
                   f"outside their session's market)")
    return sessions, warning


# ---------------------------------------------------------------------------
# prediction events: one string pair at a time

def reference_make_events(click_lists, hotel_market: dict):
    """(query, truth, market_id) tuples of sessions' click lists, as
    make_events built them before its index arrays: one per consecutive pair
    of distinct clicks, the market the query's. hotel_market maps each
    catalog hotel id to its market id; an unknown query raises ValueError
    with the catalog's message, an unknown truth is kept."""
    events = []
    for clicks in click_lists:
        for a, b in zip(clicks, clicks[1:]):
            if a == b:
                continue
            if a not in hotel_market:
                raise ValueError(f"unknown hotel_id {a!r}")
            events.append((a, b, hotel_market[a]))
    return events


# ---------------------------------------------------------------------------
# synthetic sessions: one click at a time from the world's definitions

def reference_generate_sessions(world, brand: str, cfg):
    """(session_id, brand, market_id, clicks) tuples of the sessions that
    synth.generate_sessions draws for brand. Each session draws, in this
    order: its market (uniform), its length (uniform in cfg.session_length),
    its first hotel (by the brand's popularity) and then each next hotel (by
    exp(sharpness * latent similarity to the current one) times popularity).
    A market's hotels are listed by ascending id, every click builds its
    own CDF, and a uniform at or past a CDF's last entry picks the last
    hotel."""
    catalog = world.catalog
    rng = substream(cfg.seed, "sessions", brand)
    lo, hi = cfg.session_length
    sessions = []
    for i in range(cfg.n_sessions_per_brand):
        market_id = world.market_ids[rng.integers(len(world.market_ids))]
        members = sorted(h.hotel_id for h in catalog.hotels if h.market_id == market_id)
        rows = [catalog.index[h] for h in members]
        latent, pop = world.latent[rows], world.brand_popularity[brand][rows]
        kernel = np.exp(KERNEL_SHARPNESS * (latent @ latent.T))
        length = int(rng.integers(lo, hi + 1))
        start = np.cumsum(pop / pop.sum())
        cur = int(np.searchsorted(start, rng.random(), side="right"))
        cur = min(cur, len(members) - 1)
        clicks = [members[cur]]
        for _ in range(length - 1):
            cdf = np.cumsum(kernel[cur] * pop)
            cur = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            cur = min(cur, len(members) - 1)
            clicks.append(members[cur])
        sessions.append((f"{brand}-s{i:07d}", brand, market_id, tuple(clicks)))
    return sessions


def reference_session_draws(rng, n: int, n_markets: int, lo: int, hi: int):
    """(market, length, u) of n sessions, one Generator call per draw: each
    session's market rng.integers(n_markets), its length
    rng.integers(lo, hi + 1) and its uniforms, one rng.random() per click,
    with u holding every session's uniforms in order."""
    market = np.empty(n, dtype=np.intp)
    length = np.empty(n, dtype=np.intp)
    u, end = np.empty(2 * n), 0
    for i in range(n):
        market[i] = rng.integers(n_markets)
        k = int(rng.integers(lo, hi + 1))
        length[i] = k
        if end + k > len(u):
            u = np.concatenate([u[:end], np.empty(max(len(u), k))])
        rng.random(out=u[end:end + k])
        end += k
    return market, length, u[:end]
