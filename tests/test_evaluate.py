import dataclasses
import json
import math
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandalign import evaluate as evaluate_module
from brandalign.data import BrandMapping, ClickSession, DataError, HotelCatalog, SessionSet
from brandalign.evaluate import (_BLOCK_CELLS, Events, MetricsReport, PredictionEvent,
                                 _build_report, _event_ranks, _MarketCache, _orders,
                                 _pool_ranks, _scores,
                                 cross_brand_evaluate,
                                 evaluate, hits_at_k, make_events,
                                 mrr_at_k, rank_candidates, write_metrics)
from conftest import make_catalog, make_sessions, make_space
from oracles import brute_force_metrics, reference_event_ranks, reference_make_events


def events_of(catalog, pairs):
    """Events of (query, truth) id pairs, through the constructor make_events
    uses: event i is clicks[2i] -> clicks[2i + 1]."""
    return Events(catalog, [h for pair in pairs for h in pair], range(0, 2 * len(pairs), 2))


def ranks_as_list(result):
    """_event_ranks' (ranks, skipped, missing) with the float rank array as a
    list, to compare with reference_event_ranks' list of ints and inf."""
    ranks, skipped, missing = result
    assert ranks.dtype == np.float64 and ranks.ndim == 1
    return ranks.tolist(), skipped, missing


def space_of(catalog, vectors, brand="B", dim=None):
    dims = {len(v) for v in vectors.values()}
    return make_space(brand, vectors, dim if dim is not None else dims.pop())


def test_package_attribute_evaluate_is_the_module():
    import brandalign
    from brandalign import evaluate as imported
    assert isinstance(brandalign.evaluate, types.ModuleType)
    assert imported is brandalign.evaluate and imported.evaluate is evaluate


# ---------------------------------------------------------------------------
# make_events

def test_make_events_consecutive_pairs():
    catalog = make_catalog({"m0": ["A", "B", "C"]})
    sessions = make_sessions("X", [["A", "B", "C"]], catalog)
    events = make_events(sessions, catalog)
    assert list(events) == [PredictionEvent("A", "B", "m0"),
                            PredictionEvent("B", "C", "m0")]


def test_make_events_drops_degenerate_repeats():
    catalog = make_catalog({"m0": ["A", "B"]})
    sessions = make_sessions("X", [["A", "A", "B", "B"]], catalog)
    events = make_events(sessions, catalog)
    assert list(events) == [PredictionEvent("A", "B", "m0")]


def test_make_events_single_click_session_contributes_nothing():
    catalog = make_catalog({"m0": ["A", "B"]})
    sessions = make_sessions("X", [["A"]], catalog)
    assert list(make_events(sessions, catalog)) == []
    # nor does an empty one, wherever it stands
    events = make_events(_session_set([[], ["A"], [], ["A", "B"], []]), catalog)
    assert list(events) == [("A", "B", "m0")]


_EVENT_CATALOG = make_catalog({"m0": ["a", "b", "c"], "m1": ["d", "e"]})


def _session_set(click_lists):
    """Sessions of any click lists, empty ones and unknown hotels included."""
    return SessionSet("X", [ClickSession(f"s{i}", "X", "m0", tuple(clicks))
                            for i, clicks in enumerate(click_lists)])


# u and v are outside the catalog; doubled letters make repeats (a a b) likely
@given(st.lists(st.lists(st.sampled_from("aabbcdeuv"), max_size=6), max_size=8))
@settings(max_examples=300, deadline=None)
def test_make_events_match_the_string_loop(click_lists):
    hotel_market = {h.hotel_id: h.market_id for h in _EVENT_CATALOG.hotels}
    sessions = _session_set(click_lists)
    try:
        expected = reference_make_events(click_lists, hotel_market)
    except ValueError as exc:  # an unknown query
        with pytest.raises(DataError) as raised:
            make_events(sessions, _EVENT_CATALOG)
        assert str(raised.value) == str(exc)
        return
    events = make_events(sessions, _EVENT_CATALOG)
    assert list(events) == expected
    assert len(events) == len(expected)
    assert [events[i] for i in range(-len(expected), 0)] == expected
    for i in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            events[i]


def test_make_events_raise_the_catalog_error_for_the_first_unknown_query():
    # a repeated unknown click (u u) is no event, so it raises nothing
    sessions = _session_set([["a", "u", "u"], ["b", "v", "a"], ["u", "b"]])
    with pytest.raises(DataError, match=r"^unknown hotel_id 'v'$"):
        make_events(sessions, _EVENT_CATALOG)


def test_make_events_are_built_once_per_split_and_catalog():
    sessions = _session_set([["a", "b", "c"], ["d", "e", "a"]])
    events = make_events(sessions, _EVENT_CATALOG)
    assert make_events(sessions, _EVENT_CATALOG) is events
    # the same ids in another row order: the split's events get its rows
    other = HotelCatalog(_EVENT_CATALOG.hotels[::-1])
    again = make_events(sessions, other)
    assert again is not events and again.catalog is other
    assert list(again) == list(events)
    assert again.query.tolist() == [other.index[ev.query] for ev in events]
    assert again.truth.tolist() == [other.index[ev.truth] for ev in events]
    assert again.query.tolist() != events.query.tolist()
    assert make_events(sessions, other) is again
    # they replaced the first catalog's events, which are built anew
    first = make_events(sessions, _EVENT_CATALOG)
    assert first is not events and list(first) == list(events)
    assert first.query.tolist() == events.query.tolist()


def test_session_sets_and_shared_events_are_read_only():
    sessions = _session_set([["a", "b"], ["c", "a"]])
    assert len(sessions) == 2
    with pytest.raises(TypeError):
        sessions.sessions[0] = sessions.sessions[1]
    with pytest.raises(ValueError, match="read-only"):
        sessions.sessions.ends[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sessions.sessions = ()
    events = make_events(sessions, _EVENT_CATALOG)
    for name in ("query", "truth", "at", "market"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(events, name)[0] = 1
    assert events.query.tolist() == [0, 2]


def _small_mapped_world():
    """Two markets with every hotel embedded, an id-permuting mapping onto
    the same catalog, and sessions with a cross-market truth (B -> D)."""
    catalog = make_catalog({"m0": ["A", "B", "C"], "m1": ["D", "E"]})
    rng = np.random.default_rng(5)
    space = space_of(catalog, {h: rng.normal(size=3) for h in "ABCDE"})
    mapping = BrandMapping({"A": "B", "B": "A", "C": "C", "D": "E", "E": "D"})
    sessions = make_sessions("X", [["A", "B", "C"], ["D", "E", "D"], ["C", "A"],
                                   ["B", "D"]], catalog)
    return catalog, space, mapping, sessions


@pytest.mark.parametrize("pool", ["market", "global"])
def test_one_split_builds_its_events_once_for_every_evaluation(monkeypatch, pool):
    catalog, space, mapping, sessions = _small_mapped_world()
    built = []

    class CountedEvents(Events):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(evaluate_module, "Events", CountedEvents)

    def reports(split):
        return [(r.rows, r.metadata) for r in (
            evaluate(split, space, catalog, ks=(1, 3), pool=pool),
            cross_brand_evaluate(split, space, mapping, catalog, ks=(1, 3), pool=pool))]

    shared = reports(sessions)
    assert len(built) == 1
    fresh = SessionSet(sessions.brand, list(sessions.sessions))
    assert reports(fresh) == shared and len(built) == 2


@pytest.mark.parametrize("pool", ["market", "global"])
def test_ranking_looks_each_candidate_up_at_most_once(pool):
    # events in two of three markets: the market pool resolves only their rows
    catalog, vectors, events = _ranker_world(7, 3, 40, 4, 300, 0, 0.1, 0.0)
    events = Events(catalog, events.clicks, events.at[events.market < 2])
    calls = Counter()

    def lookup(h):
        calls[h] += 1
        return vectors.get(h)

    args = (events, catalog, vectors.get, 4, "cosine")
    expected = _event_ranks(*args, skip_missing_query=True, pool=pool)
    got = _event_ranks(events, catalog, lookup, 4, "cosine", skip_missing_query=True,
                       pool=pool)
    assert ranks_as_list(got) == ranks_as_list(expected)
    assert set(calls.values()) == {1}
    ranked = (catalog.id_order if pool == "global"
              else np.concatenate(catalog.members[:2]))
    assert sorted(calls) == sorted(catalog.hotel_ids[r] for r in ranked)
    space = make_space("B", vectors, 4)
    for ev in (events[i] for i in range(0, len(events), 37)):
        if ev.query in vectors:
            calls.clear()
            rank_candidates(ev, space, catalog, pool=pool, lookup=lookup)
            size = len(catalog) if pool == "global" else len(catalog.members[0])
            assert sum(calls.values()) <= size and set(calls.values()) == {1}


def test_a_truth_outside_the_catalog_is_kept_and_ranks_outside_the_pool():
    sessions = _session_set([["a", "zz", "zz"], ["a", "b"]])
    events = make_events(sessions, _EVENT_CATALOG)
    assert list(events) == [("a", "zz", "m0"), ("a", "b", "m0")]
    assert events.truth.tolist() == [-1, 1]
    space = space_of(_EVENT_CATALOG, {h: [1.0, 0.0] for h in "abcde"})
    args = (events, _EVENT_CATALOG, space.vectors.get, 2, "cosine")
    for pool in ("market", "global"):
        assert (ranks_as_list(_event_ranks(*args, pool=pool))
                == reference_event_ranks(*args, pool=pool) == ([math.inf, 1], 0, 0))
    rep = evaluate(sessions, space, _EVENT_CATALOG, ks=(1,))
    assert rep.metadata["truth_outside_pool"] == 1
    assert rep.hits(1, "cosine", "in_brand") == 0.5


def test_markets_whose_ids_differ_by_a_trailing_nul_stay_apart():
    # numpy's fixed-width strings would read both market ids as "m"
    catalog = make_catalog({"m": ["a", "b"], "m\0": ["c", "d", "e"]})
    events = make_events(_session_set([["a", "b"], ["c", "e"]]), catalog)
    assert list(events) == [("a", "b", "m"), ("c", "e", "m\0")]
    space = space_of(catalog, {h: [1.0, 0.0] for h in "abcde"})
    assert ranks_as_list(_event_ranks(events, catalog, space.vectors.get, 2,
                                      "cosine")) == ([1, 2], 0, 0)


def test_pool_is_the_market_or_the_catalog_minus_the_query():
    # every hotel ties, so candidates keep ascending id order
    catalog = make_catalog({"m0": ["A", "B", "C"], "m1": ["D"]})
    space = space_of(catalog, {h: [1.0, 0.0] for h in "ABCD"})
    ev = PredictionEvent("A", "B", "m0")
    assert rank_candidates(ev, space, catalog) == ["B", "C"]
    assert rank_candidates(ev, space, catalog, pool="global") == ["B", "C", "D"]
    sessions = make_sessions("X", [["A", "B"], ["A", "D"]], catalog)
    market = evaluate(sessions, space, catalog, ks=(1, 3))
    assert (market.hits(1, "cosine", "in_brand"), market.hits(3, "cosine", "in_brand"),
            market.metadata["truth_outside_pool"]) == (0.5, 0.5, 1)
    spanning = evaluate(sessions, space, catalog, ks=(1, 3), pool="global")
    assert spanning.hits(3, "cosine", "in_brand") == 1.0
    assert spanning.mrr(3, "cosine", "in_brand") == (1 + 1 / 3) / 2


def test_unknown_pool_raises_from_every_entry_point():
    catalog = make_catalog({"m0": ["A", "B"]})
    space = space_of(catalog, {"A": [1.0], "B": [2.0]})
    sessions = make_sessions("X", [["A", "B"]], catalog)
    mapping = BrandMapping({"A": "A", "B": "B"})
    for call in (
            lambda: rank_candidates(PredictionEvent("A", "B", "m0"), space, catalog,
                                    pool="universe"),
            lambda: evaluate(sessions, space, catalog, pool="universe"),
            lambda: cross_brand_evaluate(sessions, space, mapping, catalog,
                                         pool="universe")):
        with pytest.raises(ValueError, match=r"^unknown pool 'universe'$"):
            call()


# ---------------------------------------------------------------------------
# rank_candidates

def test_rank_candidates_cosine_hand_example():
    catalog = make_catalog({"m0": ["Q", "X", "Y"]})
    space = space_of(catalog, {"Q": [1.0, 0.0],
                               "X": [2.0, 0.2],     # nearly parallel to Q
                               "Y": [0.0, 3.0]})    # orthogonal to Q
    ev = PredictionEvent("Q", "X", "m0")
    assert rank_candidates(ev, space, catalog, mode="cosine") == ["X", "Y"]


def test_rank_candidates_cosine_vs_model_flip():
    # Y has the bigger dot product, X the bigger cosine
    catalog = make_catalog({"m0": ["Q", "X", "Y"]})
    space = space_of(catalog, {"Q": [1.0, 0.0],
                               "X": [0.1, 0.0],
                               "Y": [10.0, 40.0]})
    ev = PredictionEvent("Q", "X", "m0")
    assert rank_candidates(ev, space, catalog, mode="cosine") == ["X", "Y"]
    assert rank_candidates(ev, space, catalog, mode="model") == ["Y", "X"]


def test_rank_candidates_all_zero_scores_ascending_id():
    catalog = make_catalog({"m0": ["Q", "c", "a", "b"]})
    space = space_of(catalog, {h: [0.0, 0.0] for h in ["Q", "a", "b", "c"]})
    ev = PredictionEvent("Q", "a", "m0")
    assert rank_candidates(ev, space, catalog) == ["a", "b", "c"]


def test_rank_candidates_missing_embeddings_rank_last():
    catalog = make_catalog({"m0": ["Q", "a", "b", "z"]})
    space = space_of(catalog, {"Q": [1.0, 0.0], "b": [1.0, 0.0]})
    ev = PredictionEvent("Q", "b", "m0")
    assert rank_candidates(ev, space, catalog) == ["b", "a", "z"]


def test_rank_candidates_missing_query_raises():
    catalog = make_catalog({"m0": ["Q", "a"]})
    space = space_of(catalog, {"a": [1.0, 0.0]})
    with pytest.raises(ValueError, match="missing"):
        rank_candidates(PredictionEvent("Q", "a", "m0"), space, catalog)


def test_rank_candidates_unknown_market_names_it():
    catalog = make_catalog({"m0": ["Q", "a"]})
    space = space_of(catalog, {"Q": [1.0], "a": [1.0]})
    for pool in ("market", "global"):
        with pytest.raises(ValueError, match=rf"^market 'm9' is not in the catalog "
                                             rf"\({pool} pool\)$"):
            rank_candidates(PredictionEvent("Q", "a", "m9"), space, catalog, pool=pool)


def test_rank_candidates_query_outside_the_pool_names_hotel_and_pool():
    catalog = make_catalog({"m0": ["Q", "a"], "m1": ["x"]})
    space = space_of(catalog, {h: [1.0] for h in ("Q", "a", "x")})
    with pytest.raises(ValueError, match=r"^query hotel 'x' is not in the pool of market 'm0'$"):
        rank_candidates(PredictionEvent("x", "a", "m0"), space, catalog)
    with pytest.raises(ValueError, match=r"^query hotel 'h9' is not in the global pool$"):
        rank_candidates(PredictionEvent("h9", "a", "m0"), space, catalog, pool="global")


# ---------------------------------------------------------------------------
# hits@k / mrr@k

def test_hits_and_mrr_hand_example():
    ranks = [1, 5, 12]
    assert hits_at_k(ranks, 10) == pytest.approx(2 / 3)
    assert mrr_at_k(ranks, 10) == pytest.approx((1.0 + 0.2 + 0.0) / 3)


def test_hits_at_one():
    assert hits_at_k([1, 2, 1, 3], 1) == 0.5
    assert mrr_at_k([1, 2, 1, 3], 1) == 0.5


@given(ranks=st.lists(st.one_of(st.integers(1, 300), st.just(math.inf)),
                     min_size=1, max_size=200),
       k=st.integers(1, 1000))
@settings(max_examples=200, deadline=None)
def test_hits_and_mrr_keep_the_bits_of_the_per_rank_sums(ranks, k):
    n = len(ranks)
    for form in (ranks, np.array(ranks, float)):
        assert hits_at_k(form, k) == sum(1 for r in ranks if r <= k) / n
        assert mrr_at_k(form, k) == math.fsum(1.0 / r if r <= k else 0.0
                                              for r in ranks) / n


def test_report_rows_keep_the_bits_of_the_per_rank_sums():
    # a palette of 3 vectors ties most scores, cross-market truths rank inf,
    # and k = 100 and 1000 exceed a 60-hotel market pool
    catalog, vectors, events = _ranker_world(4, 2, 60, 3, 300, 3, 0.1, 0.2)
    ks = (1, 10, 100, 1000)
    for pool in ("market", "global"):
        for mode in ("cosine", "model"):
            args = (events, catalog, vectors.get, 3, mode)
            expected = reference_event_ranks(*args, skip_missing_query=True, pool=pool)[0]
            ranks = _event_ranks(*args, skip_missing_query=True, pool=pool)[0]
            report = _build_report(ranks, ks, mode, "in_brand", {})
            n = len(expected)
            assert len(set(expected)) < n and (pool == "global") != (math.inf in expected)
            for k in ks:
                assert report.rows[(k, mode, "in_brand")] == {
                    "hits": sum(1 for r in expected if r <= k) / n,
                    "mrr": math.fsum(1.0 / r if r <= k else 0.0 for r in expected) / n,
                    "n_events": n}


@pytest.mark.parametrize("pool", ["market", "global"])
def test_a_k_past_int64_or_past_every_float_reads_the_exact_ranks(pool):
    # k >= 2**63 - 1 overflowed the int64 rank cap, and a k past the largest
    # float the comparison with the ranks; any k past the pool reads them all
    catalog, space, mapping, sessions = _small_mapped_world()
    for run in (lambda ks: evaluate(sessions, space, catalog, ks=ks, pool=pool),
                lambda ks: cross_brand_evaluate(sessions, space, mapping, catalog,
                                                ks=ks, pool=pool)):
        deep = run((len(catalog),))
        for k in (2 ** 63 - 1, 10 ** 20, 10 ** 400):
            rep = run((k,))
            assert list(rep.rows.values()) == list(deep.rows.values())
            assert rep.metadata == deep.metadata
    for k in (10 ** 20, 10 ** 400):
        assert hits_at_k([1, 4, math.inf], k) == 2 / 3
        assert mrr_at_k([1, 4, math.inf], k) == 1.25 / 3


def test_metrics_reject_empty_or_bad_k():
    with pytest.raises(ValueError):
        hits_at_k([], 10)
    with pytest.raises(ValueError):
        mrr_at_k([], 10)
    with pytest.raises(ValueError):
        hits_at_k([1], 0)
    with pytest.raises(ValueError):
        mrr_at_k([1], 0)


# ---------------------------------------------------------------------------
# evaluate vs brute-force oracle

def _random_world(seed, n_markets=2, per_market=6, dim=3, drop=0.0):
    rng = np.random.default_rng(seed)
    markets = {f"m{i}": [f"m{i}h{j}" for j in range(per_market)]
               for i in range(n_markets)}
    catalog = make_catalog(markets, seed=seed)
    vectors = {}
    for h in catalog.hotel_ids:
        if rng.random() >= drop:
            vectors[h] = rng.normal(size=dim)
    clicks = []
    for _ in range(10):
        m = rng.choice(list(markets))
        length = int(rng.integers(2, 5))
        clicks.append(list(rng.choice(markets[m], size=length)))
    # queries must have vectors for the in-brand path
    clicks = [[c for c in s] for s in clicks
              if all(h in vectors for h in s)]
    sessions = make_sessions("X", [s for s in clicks if len(s) >= 2], catalog)
    return catalog, vectors, sessions


def test_evaluate_matches_brute_force_20_events():
    catalog = make_catalog({"m0": [f"h{j}" for j in range(8)],
                            "m1": [f"g{j}" for j in range(7)]}, seed=1)
    rng = np.random.default_rng(1)
    vectors = {h: rng.normal(size=4) for h in catalog.hotel_ids}
    clicks = [["h0", "h3", "h5"], ["h1", "h2"], ["h7", "h0", "h4", "h6"],
              ["g0", "g1", "g2"], ["g3", "g4"], ["g6", "g5", "g0", "g1"],
              ["h2", "h6", "h1"], ["g2", "g6", "g4"], ["h4", "h7", "h2"],
              ["g5", "g3", "g6"]]
    sessions = make_sessions("X", clicks, catalog)
    events = make_events(sessions, catalog)
    assert len(events) == 20
    space = space_of(catalog, vectors)
    for mode in ("cosine", "model"):
        rep = evaluate(sessions, space, catalog, mode=mode, ks=(1, 3, 10))
        for k in (1, 3, 10):
            bf_hits, bf_mrr = brute_force_metrics(events, vectors, catalog,
                                                  mode, k)
            assert abs(rep.hits(k, mode, "in_brand") - bf_hits) < 1e-12
            assert abs(rep.mrr(k, mode, "in_brand") - bf_mrr) < 1e-12


def test_metric_invariants_on_randomized_fixtures():
    rng = np.random.default_rng(99)
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        catalog, vectors, sessions = _random_world(seed, drop=0.2)
        events = make_events(sessions, catalog)
        if not events:
            continue
        space = space_of(catalog, vectors, dim=3)
        mode = "cosine" if rng.random() < 0.5 else "model"
        rep = evaluate(sessions, space, catalog, mode=mode, ks=(1, 3, 8))
        prev_h, prev_m = 0.0, 0.0
        for k in (1, 3, 8):
            h = rep.hits(k, mode, "in_brand")
            m = rep.mrr(k, mode, "in_brand")
            assert 0.0 <= m <= h <= 1.0
            assert h >= prev_h and m >= prev_m   # monotone in k
            prev_h, prev_m = h, m
        checked += 1


def test_cosine_is_scale_invariant_model_is_not():
    catalog, vectors, sessions = _random_world(5)
    space = space_of(catalog, vectors, dim=3)
    scaled = space_of(catalog, {h: (3.7 ** (i % 5)) * v
                                for i, (h, v) in enumerate(vectors.items())},
                      dim=3)
    a = evaluate(sessions, space, catalog, mode="cosine", ks=(3,))
    b = evaluate(sessions, scaled, catalog, mode="cosine", ks=(3,))
    assert a.rows == b.rows
    events = make_events(sessions, catalog)
    flips = any(rank_candidates(ev, space, catalog, mode="model")
                != rank_candidates(ev, scaled, catalog, mode="model")
                for ev in events)
    assert flips


def test_evaluate_event_order_invariance():
    catalog, vectors, sessions = _random_world(8)
    space = space_of(catalog, vectors, dim=3)
    rev = make_sessions(sessions.brand,
                        [list(s.clicks) for s in reversed(sessions.sessions)],
                        catalog)
    a = evaluate(sessions, space, catalog, ks=(3,))
    b = evaluate(rev, space, catalog, ks=(3,))
    assert a.rows == b.rows


def test_evaluate_planted_neighbor_gets_hits_at_one():
    # truth vector parallel to the query -> cosine rank 1 everywhere
    catalog = make_catalog({"m0": ["A", "B", "C", "D"]})
    space = space_of(catalog, {"A": [1.0, 0.0], "B": [2.0, 0.0],
                               "C": [-1.0, 5.0], "D": [0.0, -1.0]})
    sessions = make_sessions("X", [["A", "B"]], catalog)
    rep = evaluate(sessions, space, catalog, ks=(1,))
    assert rep.hits(1, "cosine", "in_brand") == 1.0
    assert rep.mrr(1, "cosine", "in_brand") == 1.0


# ---------------------------------------------------------------------------
# cross-brand evaluation

def _two_brand_setup():
    catalog = make_catalog({"m0": ["sA", "sB", "sC", "tA", "tB", "tC"]})
    rng = np.random.default_rng(3)
    src_vectors = {h: rng.normal(size=3) for h in ("sA", "sB", "sC")}
    src_space = space_of(catalog, src_vectors, brand="S")
    mapping = BrandMapping({"sA": "tA", "sB": "tB", "sC": "tC"})
    sessions = make_sessions("T", [["tA", "tB"], ["tB", "tC"]], catalog)
    return catalog, src_space, mapping, sessions


def test_cross_brand_identity_mapping_reduces_to_in_brand():
    catalog = make_catalog({"m0": ["A", "B", "C"]})
    rng = np.random.default_rng(4)
    space = space_of(catalog, {h: rng.normal(size=3) for h in ("A", "B", "C")})
    sessions = make_sessions("X", [["A", "B"], ["B", "C"], ["C", "A"]], catalog)
    mapping = BrandMapping({h: h for h in ("A", "B", "C")})
    a = evaluate(sessions, space, catalog, ks=(1, 2))
    b = cross_brand_evaluate(sessions, space, mapping, catalog, ks=(1, 2))
    for k in (1, 2):
        assert a.hits(k, "cosine", "in_brand") == b.hits(k, "cosine", "cross_brand")
        assert a.mrr(k, "cosine", "in_brand") == b.mrr(k, "cosine", "cross_brand")


def test_cross_brand_scores_through_mapping():
    catalog, src_space, mapping, sessions = _two_brand_setup()
    rep = cross_brand_evaluate(sessions, src_space, mapping, catalog, ks=(1, 2))
    # tA,tB,tC rank via sA,sB,sC vectors; unmapped pool mates (sA..sC as
    # candidates of the t-queries) have no mapping entry and rank last
    assert rep.rows[(2, "cosine", "cross_brand")]["n_events"] == 2
    assert rep.metadata["skipped_events"] == 0


def test_cross_brand_unmapped_queries_skipped_and_counted():
    catalog, src_space, mapping, sessions = _two_brand_setup()
    partial = BrandMapping({"sA": "tA", "sB": "tB"})   # tC unmapped
    sessions = make_sessions("T", [["tA", "tB"], ["tC", "tA"]], catalog)
    rep = cross_brand_evaluate(sessions, src_space, partial, catalog, ks=(2,))
    assert rep.metadata["skipped_events"] == 1
    assert rep.rows[(2, "cosine", "cross_brand")]["n_events"] == 1


def test_cross_brand_all_queries_unmapped_raises():
    catalog, src_space, _, sessions = _two_brand_setup()
    with pytest.raises(ValueError, match="every query was unmapped"):
        cross_brand_evaluate(sessions, src_space, BrandMapping({"sA": "zz"}),
                             catalog)


@pytest.mark.parametrize("pool", ["market", "global"])
def test_reports_of_no_k_and_of_a_k_below_1(pool):
    # ranks are cut at the largest k: an empty ks reports no rows, and a k
    # below 1 is the report's error, not one of a ranker asked for that depth
    catalog = make_catalog({"m0": ["A", "B"]})
    space = space_of(catalog, {"A": [1.0, 0.0], "B": [0.5, 0.5]})
    sessions = make_sessions("X", [["A", "B"], ["B", "A"]], catalog)
    mapping = BrandMapping({"A": "A", "B": "B"})
    for run in (lambda ks: evaluate(sessions, space, catalog, ks=ks, pool=pool),
                lambda ks: cross_brand_evaluate(sessions, space, mapping, catalog,
                                                ks=ks, pool=pool)):
        assert run(()).rows == {}
        for ks in ((0,), (-3,), (10, 0)):
            with pytest.raises(ValueError, match=r"^k must be >= 1$"):
                run(ks)


# ---------------------------------------------------------------------------
# blocked ranker vs the per-event reference loop

def _ranker_world(seed, n_markets, market_size, dim, n_events, palette,
                  drop, cross):
    """Catalog, vectors and events with exact ties (a palette of repeated
    vectors, zero vectors), dropped embeddings and cross-market truths."""
    rng = np.random.default_rng(seed)
    markets = {f"m{i}": [f"m{i}h{j:03d}" for j in range(market_size)]
               for i in range(n_markets)}
    catalog = make_catalog(markets, seed=seed % 1000)
    colours = rng.normal(size=(max(palette, 1), dim))
    colours[0] = 0.0
    vectors = {}
    for h in catalog.hotel_ids:
        if rng.random() < drop:
            continue
        vectors[h] = (colours[rng.integers(palette)].copy() if palette
                      else rng.normal(size=dim) * (rng.random() > 0.05))
    pairs = []
    for _ in range(n_events):
        m = f"m{rng.integers(n_markets)}"
        query = markets[m][rng.integers(market_size)]
        if rng.random() < cross:
            truth = catalog.hotel_ids[rng.integers(len(catalog))]
        else:
            truth = markets[m][rng.integers(market_size)]
        if truth != query:
            pairs.append((query, truth))
    return catalog, vectors, events_of(catalog, pairs)


@given(seed=st.integers(0, 2 ** 32 - 1), n_markets=st.integers(1, 3),
       market_size=st.integers(1, 400), dim=st.integers(1, 40),
       n_events=st.integers(0, 250), palette=st.sampled_from([0, 1, 3, 8]),
       drop=st.sampled_from([0.0, 0.1, 0.5]), cross=st.sampled_from([0.0, 0.2]),
       mode=st.sampled_from(["cosine", "model"]),
       pool=st.sampled_from(["market", "global"]), skip=st.booleans())
@settings(max_examples=150, deadline=None)
def test_event_ranks_match_the_per_event_reference(seed, n_markets, market_size,
                                                   dim, n_events, palette, drop,
                                                   cross, mode, pool, skip):
    catalog, vectors, events = _ranker_world(seed, n_markets, market_size, dim,
                                             n_events, palette, drop, cross)
    args = (events, catalog, vectors.get, dim, mode)
    try:
        expected = reference_event_ranks(*args, skip_missing_query=skip, pool=pool)
    except ValueError as exc:  # in-brand: a query without an embedding
        with pytest.raises(ValueError) as raised:
            _event_ranks(*args, skip_missing_query=skip, pool=pool)
        assert str(raised.value) == str(exc)
        return
    got = _event_ranks(*args, skip_missing_query=skip, pool=pool)
    assert ranks_as_list(got) == expected


def test_event_ranks_match_the_reference_across_several_blocks():
    # one market pool, and the global pool, each with many blocks
    catalog, vectors, events = _ranker_world(7, 2, 300, 4, 600, 0, 0.1, 0.2)
    for pool, n in (("market", 300), ("global", 600)):
        assert len(events) > 4 * (_BLOCK_CELLS // n)
        for mode in ("cosine", "model"):
            args = (events, catalog, vectors.get, 4, mode)
            assert (ranks_as_list(_event_ranks(*args, skip_missing_query=True, pool=pool))
                    == reference_event_ranks(*args, skip_missing_query=True,
                                             pool=pool))


def test_event_ranks_name_the_first_missing_query_in_input_order():
    catalog = make_catalog({"m0": ["a", "b", "c"], "m1": ["x", "y", "z"]})
    vectors = {h: np.ones(2) for h in ("a", "c", "y")}
    events = events_of(catalog, [("a", "b"), ("z", "y"), ("b", "a")])
    with pytest.raises(ValueError, match=r"^query hotel 'z' missing from space$"):
        _event_ranks(events, catalog, vectors.get, 2, "cosine")


def _shared_query_pairs(catalog, markets, rng, n_queries, per_query):
    """per_query (query, truth) pairs for each of n_queries queries of every
    market, in a shuffled input order; a few are self-clicks (truth ==
    query), which make_events never emits but the ranker defines: the
    query's own place."""
    pairs = []
    for ids in markets.values():
        for q in rng.choice(ids, size=n_queries, replace=False):
            truths = rng.choice(catalog.hotel_ids, size=per_query)
            truths[0] = q
            pairs += [(str(q), str(t)) for t in truths]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def test_event_ranks_score_shared_queries_over_several_blocks():
    rng = np.random.default_rng(11)
    markets = {f"m{i}": [f"m{i}h{j:03d}" for j in range(300)] for i in range(2)}
    catalog = make_catalog(markets, seed=11)
    vectors = {h: rng.normal(size=5) for h in catalog.hotel_ids[::2]}
    vectors.update((h, rng.normal(size=5) * (rng.random() > 0.2))
                   for h in catalog.hotel_ids[1::2] if rng.random() > 0.1)
    events = events_of(catalog, _shared_query_pairs(catalog, markets, rng, 200, 6))
    for pool, n, distinct in (("market", 300, 200), ("global", 600, 400)):
        assert distinct > 3 * (_BLOCK_CELLS // n)  # queries of a pool span >3 blocks
        for mode in ("cosine", "model"):
            args = (events, catalog, vectors.get, 5, mode)
            got = _event_ranks(*args, skip_missing_query=True, pool=pool)
            assert ranks_as_list(got) == reference_event_ranks(
                *args, skip_missing_query=True, pool=pool)
            assert got[1] > 0  # queries without an embedding were skipped


def test_event_ranks_order_signed_zero_and_all_zero_ties_by_id():
    # model scores of -0.0 and 0.0 tie, and an all-zero query ties its pool;
    # the stable sort must keep such ties in ascending id order
    rng = np.random.default_rng(5)
    markets = {"m0": [f"h{j:03d}" for j in range(400)]}
    catalog = make_catalog(markets, seed=5)
    signs = rng.choice([-1.0, 1.0], size=(400, 3))
    vectors = {h: signs[i] * (0.0 if i % 3 else abs(rng.normal(size=3)))
               for i, h in enumerate(catalog.hotel_ids)}
    vectors["h000"] = np.array([-0.0, 0.0, -0.0])
    assert sum(np.signbit(v).any() and not v.any() for v in vectors.values()) > 100
    pairs = _shared_query_pairs(catalog, markets, rng, 60, 8) + [("h000", "h399")]
    events = events_of(catalog, pairs)
    for mode in ("model", "cosine"):
        args = (events, catalog, vectors.get, 3, mode)
        assert ranks_as_list(_event_ranks(*args)) == reference_event_ranks(*args)
    ranks = _event_ranks(events_of(catalog, [("h000", "h001"), ("h000", "h399")]),
                         catalog, vectors.get, 3, "model")[0]
    assert ranks.tolist() == [1, 399]


def test_event_ranks_keep_input_order_across_interleaved_markets():
    catalog, vectors, events = _ranker_world(3, 3, 50, 4, 400, 3, 0.1, 0.2)
    by_market = [[ev for ev in events if ev.market_id == m] for m in ("m0", "m1", "m2")]
    mixed = [ev for row in zip(*by_market) for ev in row]  # round robin
    mixed += [ev for ev in events if ev not in mixed]
    for pool in ("market", "global"):
        for order in (mixed, mixed[::-1]):
            args = (events_of(catalog, [ev[:2] for ev in order]), catalog, vectors.get, 4,
                    "cosine")
            assert (ranks_as_list(_event_ranks(*args, skip_missing_query=True, pool=pool))
                    == reference_event_ranks(*args, skip_missing_query=True,
                                             pool=pool))


@pytest.mark.parametrize("seed", range(6))
def test_rank_candidates_is_the_order_event_ranks_read(seed):
    # pools of 203 hotels x 32 dims copied from 8 rows: exact ties everywhere,
    # which a gemv's position-dependent last bits must not break differently
    rng = np.random.default_rng(seed)
    markets = {f"m{i}": [f"m{i}h{j:03d}" for j in range(203)] for i in range(2)}
    catalog = make_catalog(markets, seed=seed)
    rows = rng.normal(size=(8, 32))
    space = space_of(catalog, {h: rows[rng.integers(8)].copy()
                               for h in catalog.hotel_ids})
    events = events_of(catalog, [(q, t) for ids in markets.values()
                                 for q, t in rng.choice(ids, size=(10, 2)) if q != t])
    for mode in ("cosine", "model"):
        for pool in ("market", "global"):
            ranks, _, _ = _event_ranks(events, catalog, space.vectors.get, 32,
                                       mode, pool=pool)
            assert [rank_candidates(ev, space, catalog, mode=mode, pool=pool)
                    .index(ev.truth) + 1 for ev in events] == ranks.tolist()


# rows whose scores tie often: signed zeros, and rows whose dot products
# overflow to +-inf or, as inf - inf, to nan
_PALETTE = np.array([[0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [1.0, -2.0], [0.5, 0.25],
                     [-1.0, 2.0], [2.0, -4.0], [3.0, 0.0], [1e-300, 0.0],
                     [1e200, 1e200], [1e200, -1e200], [-1e200, 3.0]])


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       blocks=st.floats(0.01, 2.5), mode=st.sampled_from(["cosine", "model"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_orders_are_the_stable_argsort_of_the_scores(seed, n, blocks, mode, data):
    # queries from a fraction of one _pool_ranks block up to more than two
    cap = data.draw(st.none() | st.integers(1, n + 1), label="cap")
    rng = np.random.default_rng(seed)
    catalog = make_catalog({"m0": [f"h{j:03d}" for j in range(n)]})
    palette = _PALETTE[rng.integers(len(_PALETTE), size=n)]
    present = rng.random(n) < 0.8
    present[rng.integers(n)] = True
    vectors = {h: palette[i] for i, h in enumerate(catalog.hotel_ids) if present[i]}
    cols = np.flatnonzero(present)
    n_queries = max(1, round(blocks * (_BLOCK_CELLS // n)))
    queries, truths = rng.choice(cols, size=n_queries), rng.integers(n, size=n_queries)
    with np.errstate(all="ignore"):
        cache = _MarketCache.resolve(catalog, catalog.members[0], vectors.get, 2)
        scored = cols[np.argsort(-_scores(cache, queries, mode)[:, cols], axis=1,
                                 kind="stable")]
        # candidates without an embedding follow, by position
        absent = np.broadcast_to(np.flatnonzero(~present), (n_queries, n - len(cols)))
        expected = np.hstack([scored, absent])
        assert _orders(cache, queries, mode).tolist() == expected.tolist()
        ranks = _pool_ranks(cache, queries, truths, mode, cap)
    # each event's rank reads the same order: the truth's place, less the query's
    rows = np.arange(n_queries)
    place = np.empty((n_queries, n), np.intp)
    place[rows[:, None], expected] = np.arange(n)
    p_t, p_q = place[rows, truths], place[rows, queries]
    exact = 1 + p_t - (p_q < p_t)
    # up to the cap exact, past it cap + 1
    assert ranks.tolist() == (exact if cap is None else np.minimum(exact, cap + 1)).tolist()


def test_cosine_scores_are_dot_products_of_unit_rows_whatever_the_block():
    # a unit row is the row over its norm, zero for an absent row and for one
    # whose norm is zero (or underflows to it); a query scored among many
    # queries gets the bits it gets scored alone
    rng = np.random.default_rng(2)
    catalog = make_catalog({"m0": [f"h{j}" for j in range(200)]})
    for dim in (1, 2, 3, 7, 16, 32, 33, 64):
        for scale in (1e-200, 1e-3, 1.0, 1e4, 1e150):
            vectors = {h: rng.normal(size=dim) * scale * (rng.random() > 0.1)
                       for h in catalog.hotel_ids if rng.random() > 0.1}
            cache = _MarketCache.resolve(catalog, catalog.members[0], vectors.get, dim)
            for h, unit in zip([catalog.hotel_ids[r] for r in cache.rows], cache.unit):
                v = vectors.get(h, np.zeros(dim))
                norm = np.sqrt(np.sum(v * v))
                expected = v / norm if norm > 0 else np.zeros(dim)
                assert unit.tobytes() == expected.tobytes()
            queries = rng.choice(np.flatnonzero(cache.present), size=40)
            block = _scores(cache, queries, "cosine")
            for q, row in zip(queries, block):
                assert row.tobytes() == _scores(cache, [q], "cosine")[0].tobytes()
                assert row.tobytes() == (cache.unit @ cache.unit[q]).tobytes()


def test_a_table_gathered_from_a_larger_one_keeps_the_bits_of_its_own():
    # _event_ranks resolves every ranked row once and gathers each pool's
    # rows from that table: a row's norm, so its unit row, ignores the rest
    rng = np.random.default_rng(3)
    catalog = make_catalog({f"m{i}": [f"m{i}h{j:02d}" for j in range(50)]
                            for i in range(3)})
    for dim in (1, 3, 32, 33):
        vectors = {h: rng.normal(size=dim) * 10.0 ** rng.integers(-150, 150)
                   * (rng.random() > 0.1) for h in catalog.hotel_ids if rng.random() > 0.1}
        table = _MarketCache.resolve(catalog, rng.permutation(len(catalog)),
                                     vectors.get, dim)
        at = np.argsort(table.rows)  # catalog row -> table position
        for rows in (*catalog.members, catalog.id_order):
            own = _MarketCache.resolve(catalog, rows, vectors.get, dim)
            gathered = _MarketCache(*(a[at[rows]] for a in table))
            assert [a.tobytes() for a in gathered] == [a.tobytes() for a in own]


# ---------------------------------------------------------------------------
# write_metrics

def test_write_metrics_one_json_object_per_cell(tmp_path):
    rep = MetricsReport(rows={
        (10, "cosine", "in_brand"): {"hits": 0.5, "mrr": 0.25, "n_events": 4},
        (100, "cosine", "in_brand"): {"hits": 0.75, "mrr": 0.3, "n_events": 4},
    }, metadata={"missing_candidates": 0, "embeddings": tmp_path / "B.emb"})
    p = tmp_path / "metrics.jsonl"
    write_metrics(rep, p)
    lines = [json.loads(line) for line in p.read_text().splitlines()]
    assert lines[0] == {"setting": "in_brand", "mode": "cosine", "k": 10,
                        "hits": 0.5, "mrr": 0.25, "n_events": 4}
    assert lines[1]["k"] == 100
    # a value json cannot encode, such as a path, is written as its str
    assert lines[2] == {"metadata": {"missing_candidates": 0,
                                     "embeddings": str(tmp_path / "B.emb")}}
