import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandalign.data import ClickSession, DataError, SessionSet
from brandalign.evaluate import make_events
from brandalign.pairs import build_epoch_stream, make_pairs, sample_negatives
from brandalign.rng import _RAW_WORDS_PER_DRAW, RawWords, substream
from conftest import make_catalog, make_sessions


def _pool(catalog, hotel):
    """The hotel ids of hotel's market: the pool its negatives come from."""
    code = catalog.market_codes[catalog.index[hotel]]
    return [catalog.hotel_ids[r] for r in catalog.members[code]]


def _session(clicks, market="m0", brand="A"):
    return ClickSession(session_id="s", brand=brand, market_id=market,
                        clicks=tuple(clicks))


# ---------------------------------------------------------------------------
# make_pairs

def test_make_pairs_window_one_exact_order():
    assert make_pairs(_session(["A", "B", "C"]), window=1) == [
        ("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")]


def test_make_pairs_window_two_adds_long_range():
    got = make_pairs(_session(["A", "B", "C"]), window=2)
    assert set(got) == {("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"),
                        ("A", "C"), ("C", "A")}
    assert len(got) == 6


def test_make_pairs_single_click_empty():
    assert make_pairs(_session(["A"]), window=3) == []


def test_make_pairs_drops_repeated_click_self_pairs():
    got = make_pairs(_session(["A", "A", "B"]), window=1)
    assert got == [("A", "B"), ("B", "A")]


def test_make_pairs_rejects_bad_window():
    with pytest.raises(ValueError):
        make_pairs(_session(["A", "B"]), window=0)


@given(length=st.integers(1, 8), window=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_make_pairs_count_matches_brute_force(length, window):
    clicks = [f"h{i}" for i in range(length)]  # distinct clicks
    got = make_pairs(_session(clicks), window)
    expected = sum(1 for i in range(length) for j in range(length)
                   if i != j and abs(i - j) <= window)
    assert len(got) == expected


@given(length=st.integers(2, 8), window=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_make_pairs_symmetry(length, window):
    clicks = [f"h{i}" for i in range(length)]
    got = set(make_pairs(_session(clicks), window))
    assert got == {(b, a) for a, b in got}


# ---------------------------------------------------------------------------
# sample_negatives

BOUNDS = [2, 3, 150, 200, 2**31 + 1, 2**32 - 1]


@given(seed=st.integers(0, 2**64 - 1), lead=st.integers(-60, 60),
       bounds=st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_negative_draws_equal_generator_integers(seed, lead, bounds):
    # with nothing to exclude each negative is one call of integers; the lead
    # (one 32-bit half per draw at m = 2, two per raw word) puts the block
    # refill within or near the run of mixed bounds, also within a run of
    # rejected words (about half of them are rejected at m = 2**31 + 1)
    lead += 2 * _RAW_WORDS_PER_DRAW - 30
    words = RawWords(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    assert sample_negatives(range(2), -1, -1, lead, words) == \
        rng.integers(0, 2, size=lead).tolist()
    got = [sample_negatives(range(m), -1, -1, 1, words)[0] for m in bounds]
    assert got == [int(rng.integers(0, m)) for m in bounds]


@pytest.mark.parametrize("m", BOUNDS)
def test_negative_draws_match_one_bulk_integers_call(m):
    # 20,000 draws, at least one 32-bit half each, span at least two block refills
    words = RawWords(substream(5, "negatives", 1))
    want = substream(5, "negatives", 1).integers(0, m, size=20_000).tolist()
    assert sample_negatives(range(m), -1, -1, 20_000, words) == want


def test_negatives_respect_exclusions(catalog4):
    words = RawWords(substream(0, "negatives", 0))
    for _ in range(20):
        negs = sample_negatives(_pool(catalog4, "A"), "A", "B", 2, words)
        assert len(negs) == 2
        assert set(negs) <= {"C", "D"}


def test_negatives_empty_eligible_set_skips():
    catalog = make_catalog({"m0": ["A", "B"]})
    words = RawWords(substream(0, "negatives", 0))
    assert sample_negatives(_pool(catalog, "A"), "A", "B", 1, words) is None


def test_negatives_deterministic_under_seed(catalog4):
    def draw():
        words = RawWords(substream(9, "negatives", 0))
        return [sample_negatives(_pool(catalog4, "A"), "A", "B", 3, words)
                for _ in range(5)]
    assert draw() == draw()


def test_negatives_sample_with_replacement():
    # eligible set of size 1: every draw must be the single eligible hotel
    catalog = make_catalog({"m0": ["A", "B", "C"]})
    words = RawWords(substream(0, "negatives", 0))
    assert sample_negatives(_pool(catalog, "A"), "A", "B", 4, words) == ["C", "C", "C", "C"]


def test_negatives_share_target_market(catalog6):
    words = RawWords(substream(3, "negatives", 0))
    for target, context in [("h0", "h1"), ("h4", "h5")]:
        negs = sample_negatives(_pool(catalog6, target), target, context, 5, words)
        market = catalog6.market_of(target)
        for n in negs:
            assert catalog6.market_of(n) == market
            assert n not in (target, context)


# ---------------------------------------------------------------------------
# build_epoch_stream

def test_stream_empty_sessions(catalog6):
    stream = build_epoch_stream(SessionSet("A", []), catalog6, 1, 2, 0, 0)
    assert list(stream) == []


def test_stream_deterministic(catalog6):
    sset = make_sessions("A", [["h0", "h1", "h2"], ["h3", "h4"]], catalog6)
    a = list(build_epoch_stream(sset, catalog6, 2, 1, 7, 0))
    b = list(build_epoch_stream(sset, catalog6, 2, 1, 7, 0))
    assert a == b
    c = list(build_epoch_stream(sset, catalog6, 2, 1, 7, 1))
    assert a != c  # different epoch index reshuffles


def test_stream_pair_count_matches_brute_force():
    # two markets x three hotels, ten generated two-click sessions, window 1:
    # every session contributes 2*(len-1) pairs, minus the skipped ones
    from brandalign import synth
    cfg = synth.WorldConfig(n_markets=2, hotels_per_market=3, latent_dim=2,
                            d_a_in=2, d_g_in=2, n_sessions_per_brand=10,
                            session_length=(2, 4), seed=11)
    world = synth.generate_world(cfg)
    sset = synth.generate_sessions(world, "A", cfg)
    skip_counter = [0]
    pairs = list(build_epoch_stream(sset, world.catalog, 1, 2, 11, 0,
                                    skip_counter))
    expected = sum(len(make_pairs(s, 1)) for s in sset.sessions)
    assert len(pairs) + skip_counter[0] == expected
    ids = world.catalog.hotel_ids
    for t, c, *negs in pairs:
        assert len(negs) == 2
        assert t != c
        market = world.catalog.market_of(ids[t])
        assert all(world.catalog.market_of(ids[n]) == market for n in negs)


def test_stream_counts_skipped_pairs():
    catalog = make_catalog({"m0": ["A", "B"]})
    sset = make_sessions("X", [["A", "B"]], catalog)
    skip_counter = [0]
    pairs = list(build_epoch_stream(sset, catalog, 1, 1, 0, 0, skip_counter))
    assert pairs == []
    assert skip_counter[0] == 2


# equal clicks outside the catalog that are not the same object
_ZZ, _ZZ_AGAIN = "zz", "".join(["z", "z"])


@pytest.mark.parametrize("click_lists, events_error, stream_error", [
    # two different unknown ids in a row: an event and a pair, each unknown
    ([["zz", "yy"]], "zz", "zz"),
    ([["h0", "zz", "yy", "h1"]], "zz", "zz"),
    # the same unknown id twice: no event and no pair
    ([["h0", "h1"], [_ZZ, _ZZ_AGAIN]], None, None),
    ([[1, 1.0, True]], None, None),
    # an unknown truth is an event, but its pair is the catalog's error
    ([["h0", _ZZ, _ZZ_AGAIN]], None, "zz"),
])
def test_unknown_clicks_raise_where_their_ids_differ(click_lists, events_error,
                                                     stream_error):
    # a set built from ClickSessions keeps each click as given: two clicks
    # outside the catalog are the same click only when they compare equal
    assert _ZZ == _ZZ_AGAIN and _ZZ is not _ZZ_AGAIN
    catalog = make_catalog({"m0": ["h0", "h1", "h2"]})
    sset = SessionSet("A", [_session(clicks) for clicks in click_lists])
    for error, run in ((events_error, lambda: make_events(sset, catalog)),
                       (stream_error, lambda: list(build_epoch_stream(sset, catalog, 1, 1,
                                                                      0, 0)))):
        if error is None:
            run()
        else:
            with pytest.raises(DataError, match=rf"^unknown hotel_id '{error}'$"):
                run()
