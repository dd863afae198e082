import json
import operator
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import oracles
from brandalign import synth
from brandalign.data import (ClickSession, SessionSet, load_catalog, load_mapping,
                            load_sessions, split_sessions)
from brandalign.rng import session_draws, substream
from brandalign.synth import (World, WorldConfig, generate_sessions,
                              generate_world, write_catalog, write_mapping,
                              write_sessions, write_world_meta)
from oracles import reference_generate_sessions, reference_write_sessions


def tiny_cfg(**kw):
    base = dict(n_markets=2, hotels_per_market=3, latent_dim=4, d_a_in=3,
                d_g_in=2, n_sessions_per_brand=20, session_length=(2, 4),
                brand_bias_strength=1.0, overlap_fraction=1.0, seed=5)
    base.update(kw)
    return WorldConfig(**base)


# ---------------------------------------------------------------------------
# world generation

def test_world_has_expected_shape():
    world = generate_world(tiny_cfg())
    assert len(world.catalog) == 6
    assert world.market_ids == ["m000", "m001"]
    assert world.catalog.market_of("h00000") == "m000"
    assert world.catalog.market_of("h00005") == "m001"
    assert world.latent.shape == (6, 4)  # one row per catalog row
    assert {b: p.shape for b, p in world.brand_popularity.items()} == \
        {"A": (6,), "B": (6,)}


def test_world_is_deterministic():
    a = generate_world(tiny_cfg())
    b = generate_world(tiny_cfg())
    for hid in a.catalog.hotel_ids:
        ia, ib = a.catalog.index[hid], b.catalog.index[hid]
        assert np.array_equal(a.latent[ia], b.latent[ib])
        assert np.array_equal(a.catalog.hotels[ia].amenities,
                              b.catalog.hotels[ib].amenities)
        for brand in ("A", "B"):
            assert np.array_equal(a.brand_popularity[brand][ia],
                                  b.brand_popularity[brand][ib])
    assert a.brand_popularity.keys() == b.brand_popularity.keys() == {"A", "B"}


def test_world_changes_with_seed():
    a = generate_world(tiny_cfg(seed=1))
    b = generate_world(tiny_cfg(seed=2))
    assert not np.array_equal(a.latent[a.catalog.index["h00000"]],
                              b.latent[b.catalog.index["h00000"]])


def test_latent_vectors_are_unit_norm():
    world = generate_world(tiny_cfg())
    for hid in world.catalog.hotel_ids:
        assert np.isclose(np.linalg.norm(world.latent[world.catalog.index[hid]]), 1.0)


def test_feature_ranges():
    world = generate_world(tiny_cfg(n_markets=3, hotels_per_market=40))
    for h in world.catalog.hotels:
        assert np.all(h.amenities >= 0.0) and np.all(h.amenities <= 1.0)
        assert np.all(h.geo >= -1.0) and np.all(h.geo <= 1.0)
    assert world.catalog.amenity_dim == 3
    assert world.catalog.geo_dim == 2


def test_full_overlap_maps_every_hotel():
    world = generate_world(tiny_cfg(overlap_fraction=1.0))
    assert len(world.mapping) == 6
    for hid in world.catalog.hotel_ids:
        assert world.mapping.pairs[hid] == hid


def test_partial_overlap_maps_prefix():
    world = generate_world(tiny_cfg(overlap_fraction=0.5))
    assert len(world.mapping) == 3


def test_popularity_positive():
    world = generate_world(tiny_cfg())
    assert all(world.brand_popularity[brand][world.catalog.index[hid]] > 0
               for brand in ("A", "B") for hid in world.catalog.hotel_ids)


def test_click_weights_past_float_range_are_a_value_error():
    # bias 1000 once gave weights of inf and click CDFs of NaN; at 423.5 the
    # weights are finite, but times _walk's kernel they overflow; at 1200 the
    # lone hotel of seed 2 draws a brand-A weight of 0, and its market's start
    # CDF was 0/0
    smoke = dict(n_markets=2, hotels_per_market=10, seed=1)
    for kw, brand in ((dict(smoke, brand_bias_strength=1000.0), "A"),
                      (dict(smoke, brand_bias_strength=423.5), "B"),
                      (dict(n_markets=1, hotels_per_market=1, seed=2,
                            brand_bias_strength=1200.0), "A")):
        with pytest.raises(ValueError, match=f"^brand_bias_strength .* '{brand}' "):
            generate_world(tiny_cfg(**kw))
    world = generate_world(tiny_cfg(**smoke, brand_bias_strength=400.0))
    assert all(np.isfinite(p).all() for p in world.brand_popularity.values())


def test_zero_bias_gives_identical_brand_popularity():
    world = generate_world(tiny_cfg(brand_bias_strength=0.0))
    for hid in world.catalog.hotel_ids:
        i = world.catalog.index[hid]
        assert world.brand_popularity["A"][i] == world.brand_popularity["B"][i]


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        generate_world(tiny_cfg(n_markets=0))
    with pytest.raises(ValueError, match="session_length"):
        generate_world(tiny_cfg(session_length=(1, 4)))
    with pytest.raises(ValueError, match="session_length"):
        generate_world(tiny_cfg(session_length=(4, 2)))
    with pytest.raises(ValueError, match="bias"):
        generate_world(tiny_cfg(brand_bias_strength=-0.1))
    with pytest.raises(ValueError, match="overlap"):
        generate_world(tiny_cfg(overlap_fraction=1.5))
    with pytest.raises(ValueError, match="no hotel"):
        generate_world(tiny_cfg(overlap_fraction=0.01))
    with pytest.raises(ValueError, match="brand names must differ"):
        generate_world(tiny_cfg(brands=("A", "A")))
    with pytest.raises(ValueError, match="brand names must not hold"):
        generate_world(tiny_cfg(brands=("A", "B/C")))


@pytest.mark.parametrize("field", ["n_markets", "hotels_per_market", "latent_dim",
                                   "d_a_in", "d_g_in", "n_sessions_per_brand",
                                   "session_length"])
def test_sizes_at_2_63_are_refused_by_name(field):
    # numpy takes array sizes and draw bounds as int64; --hotels-per-market
    # 10**20 once ran until killed, the others failed in numpy
    def cfg(value):
        return tiny_cfg(**{field: (2, value) if field == "session_length" else value})

    cfg(2 ** 63 - 1).validate()
    with pytest.raises(ValueError, match=rf"^{field} must be positive and below 2\*\*63, "
                                         rf"got {2 ** 63}$"):
        cfg(2 ** 63).validate()
    if field == "session_length":  # its lower end cannot pass the upper one
        with pytest.raises(ValueError, match="^session_length "):
            tiny_cfg(session_length=(2 ** 63, 2 ** 63)).validate()
        with pytest.raises(ValueError, match="^session_length "):
            tiny_cfg(session_length=(2 ** 63, 5)).validate()


# ---------------------------------------------------------------------------
# session generation

def test_sessions_shape_and_lengths():
    cfg = tiny_cfg(session_length=(2, 2), n_sessions_per_brand=15)
    world = generate_world(cfg)
    sset = generate_sessions(world, "A", cfg)
    assert len(sset.sessions) == 15
    for s in sset.sessions:
        assert len(s.clicks) == 2
        assert s.brand == "A"


def test_sessions_stay_within_one_market():
    cfg = tiny_cfg(n_markets=3, hotels_per_market=10, n_sessions_per_brand=50)
    world = generate_world(cfg)
    for brand in ("A", "B"):
        for s in generate_sessions(world, brand, cfg).sessions:
            markets = {world.catalog.market_of(h) for h in s.clicks}
            assert markets == {s.market_id}


def test_sessions_deterministic_and_brand_dependent():
    cfg = tiny_cfg(n_sessions_per_brand=30)
    world = generate_world(cfg)
    a1 = generate_sessions(world, "A", cfg)
    a2 = generate_sessions(world, "A", cfg)
    b = generate_sessions(world, "B", cfg)
    assert [s.clicks for s in a1.sessions] == [s.clicks for s in a2.sessions]
    assert [s.clicks for s in a1.sessions] != [s.clicks for s in b.sessions]


def test_sessions_unknown_brand_raises():
    cfg = tiny_cfg()
    world = generate_world(cfg)
    with pytest.raises(ValueError, match="unknown brand"):
        generate_sessions(world, "Z", cfg)


@pytest.mark.parametrize("kw", [
    pytest.param(dict(seed=5), id="5-1.0"),
    pytest.param(dict(seed=17, brand_bias_strength=0.0), id="17-0.0"),
    pytest.param(dict(seed=23, brand_bias_strength=2.5), id="23-2.5"),
    pytest.param(dict(n_markets=4, n_sessions_per_brand=1), id="unvisited-markets"),
    pytest.param(dict(hotels_per_market=1), id="one-hotel-markets"),
    pytest.param(dict(session_length=(2, 2)), id="length-2-2"),
    pytest.param(dict(session_length=(5, 12)), id="length-5-12"),
    pytest.param(dict(n_markets=1), id="one-market"),
    pytest.param(dict(n_markets=2, hotels_per_market=150, n_sessions_per_brand=4400,
                      seed=8), id="150-hotels-2000-sessions-per-market"),
])
def test_sessions_match_the_click_at_a_time_reference(kw):
    # generate_sessions walks all of a market's sessions one click at a time
    # from one CDF table; the reference walks one session at a time and
    # builds every click's CDF from the definitions
    cfg = tiny_cfg(**{**dict(n_markets=3, hotels_per_market=7, n_sessions_per_brand=300,
                             session_length=(2, 6), brand_bias_strength=1.0), **kw})
    world = generate_world(cfg)
    for brand in ("A", "B"):
        assert list(generate_sessions(world, brand, cfg).sessions) == \
            reference_generate_sessions(world, brand, cfg)


class _TopUniforms:
    """The reference's sessions substream: it draws as the real one does,
    but every uniform it returns is the largest double below 1."""
    TOP = 1 - 2**-53

    def __init__(self, *key):
        self._rng = substream(*key)

    def integers(self, *args):
        return self._rng.integers(*args)

    def random(self):
        self._rng.random()
        return self.TOP


def test_a_start_uniform_past_the_start_cdf_picks_the_last_hotel(monkeypatch):
    # a start CDF's last entry can round below 1.0; the start click used to
    # index one past the market's hotels and raise IndexError
    cfg = tiny_cfg(n_markets=4, hotels_per_market=9, n_sessions_per_brand=40, seed=3)
    world = generate_world(cfg)
    catalog = world.catalog
    below_one = [m for m, rows in zip(catalog.market_ids, catalog.members)
                 if np.cumsum(world.brand_popularity["A"][rows] /
                              world.brand_popularity["A"][rows].sum())[-1] < 1.0]
    assert below_one

    def top_uniforms(*args):  # the real markets and lengths
        market, length, u = session_draws(*args)
        return market, length, np.full_like(u, _TopUniforms.TOP)

    monkeypatch.setattr(synth, "session_draws", top_uniforms)
    monkeypatch.setattr(oracles, "substream", _TopUniforms)
    sessions = generate_sessions(world, "A", cfg).sessions
    assert list(sessions) == reference_generate_sessions(world, "A", cfg)
    assert set(below_one) <= {s.market_id for s in sessions}
    for s in sessions:
        last = catalog.hotel_ids[catalog.members[catalog.market_ids.index(s.market_id)][-1]]
        assert s.clicks == (last,) * len(s.clicks)


def test_zero_bias_start_distribution_matches_shared_popularity():
    # with brand_bias_strength=0 the empirical start-hotel distribution of
    # both brands follows the one shared popularity vector (chi-square test)
    cfg = tiny_cfg(n_markets=1, hotels_per_market=6, brand_bias_strength=0.0,
                   n_sessions_per_brand=10_000, session_length=(2, 2))
    world = generate_world(cfg)
    pop = np.array([world.brand_popularity["A"][world.catalog.index[h]]
                    for h in world.catalog.hotel_ids])
    expected = pop / pop.sum() * cfg.n_sessions_per_brand
    for brand in ("A", "B"):
        sset = generate_sessions(world, brand, cfg)
        counts = {h: 0 for h in world.catalog.hotel_ids}
        for s in sset.sessions:
            counts[s.clicks[0]] += 1
        observed = np.array([counts[h] for h in world.catalog.hotel_ids])
        stat = float(np.sum((observed - expected) ** 2 / expected))
        cutoff = scipy.stats.chi2.ppf(0.99, df=len(pop) - 1)
        assert stat < cutoff, f"brand {brand}: chi2 {stat} >= {cutoff}"


def test_similar_hotels_co_occur_more():
    # transition kernel favors latent similarity: co-click counts for
    # high-cosine pairs must exceed those for low-cosine pairs
    cfg = tiny_cfg(n_markets=1, hotels_per_market=12, brand_bias_strength=0.0,
                   n_sessions_per_brand=4000, session_length=(2, 2), seed=9)
    world = generate_world(cfg)
    sset = generate_sessions(world, "A", cfg)
    ids = world.catalog.hotel_ids
    pair_counts = {}
    for s in sset.sessions:
        a, b = s.clicks
        if a != b:
            pair_counts[frozenset((a, b))] = pair_counts.get(frozenset((a, b)), 0) + 1
    latent = {h: world.latent[world.catalog.index[h]] for h in ids}
    cos = {frozenset((x, y)): float(latent[x] @ latent[y])
           for i, x in enumerate(ids) for y in ids[i + 1:]}
    ordered = sorted(cos, key=cos.get)
    third = len(ordered) // 3
    low = np.mean([pair_counts.get(p, 0) for p in ordered[:third]])
    high = np.mean([pair_counts.get(p, 0) for p in ordered[-third:]])
    assert high > low


# ---------------------------------------------------------------------------
# writers round-trip through the data loaders

def test_writers_roundtrip(tmp_path):
    cfg = tiny_cfg(overlap_fraction=0.5)
    world = generate_world(cfg)
    sset = generate_sessions(world, "A", cfg)

    cpath, spath, mpath = (tmp_path / n for n in
                           ("catalog.jsonl", "sessions.jsonl", "mapping.tsv"))
    write_catalog(world.catalog, cpath)
    write_sessions(sset, spath)
    write_mapping(world.mapping, mpath)

    catalog = load_catalog(cpath)
    assert catalog.hotel_ids == world.catalog.hotel_ids
    for hid in catalog.hotel_ids:
        assert np.allclose(catalog.hotels[catalog.index[hid]].amenities,
                           world.catalog.hotels[world.catalog.index[hid]].amenities)

    loaded = load_sessions(spath, catalog, brand="A")
    assert [s.clicks for s in loaded.sessions] == \
        [s.clicks for s in sset.sessions]

    mapping = load_mapping(mpath, source_catalog=catalog,
                           target_catalog=catalog)
    assert mapping.pairs == world.mapping.pairs


def test_loaded_sessions_write_back_byte_identical(tmp_path):
    cfg = tiny_cfg(n_markets=3, hotels_per_market=8, n_sessions_per_brand=300,
                   session_length=(2, 6))
    world = generate_world(cfg)
    sset = generate_sessions(world, "B", cfg)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_sessions(sset, first)
    loaded = load_sessions(first, world.catalog, brand="B")
    assert loaded.sessions == sset.sessions
    write_sessions(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_write_sessions_is_json_dumps_per_line(tmp_path):
    # each line is one f-string over cached encodings: a quote, a backslash,
    # non-ASCII, U+2028 and a control character must be escaped as json.dumps
    # does, a session id may equal a hotel id, and 1, 1.0, True, "1", 0.0 and
    # -0.0 are equal or near-equal keys with different encodings
    odd = ['h"1', "h\\2", "hôtel", "ホテル", "h\u2028x", "h\x01", "h\ty"]
    brand = 'B"\u00e9'
    sessions = [
        ClickSession("h00001", brand, "m\\0", ("h00001", "h00001", "h00002")),
        *(ClickSession(h, brand, h, tuple(odd[i:] + odd[:i]) * 2)
          for i, h in enumerate(odd)),
        ClickSession("s-mixed", brand, "m000", (1, 1.0, True, "1", 1, True, 1.0, "1")),
        ClickSession("s-zeros", brand, "m000", (0.0, -0.0, 0, False, -0.0, 0.0)),
        ClickSession("s-empty", brand, "m000", ()),
        ClickSession(7, brand, None, ("h00001",)),
    ]
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    write_sessions(SessionSet(brand, sessions), got)
    reference_write_sessions(sessions, want)
    assert got.read_bytes() == want.read_bytes()

    cfg = tiny_cfg(n_markets=3, hotels_per_market=8, n_sessions_per_brand=300)
    sset = generate_sessions(generate_world(cfg), "A", cfg)
    write_sessions(sset, got)
    reference_write_sessions(sset.sessions, want)
    assert got.read_bytes() == want.read_bytes()


def test_session_set_reads_back_each_click_session_as_given():
    # a SessionSet keeps its sessions as columns: one flat tuple of clicks
    # and their ends; reading one builds the ClickSession it was given, with
    # its clicks the very objects given (1, 1.0 and True, or 0.0 and -0.0,
    # are equal but not the same)
    brand = "B"
    sessions = [
        ClickSession("s-mixed", brand, "m000", (1, 1.0, True, "1", 1, True, 1.0, "1")),
        ClickSession("s-zeros", brand, "m000", (0.0, -0.0, 0, False, -0.0, 0.0)),
        ClickSession("s-empty", brand, "m000", ()),
        ClickSession(7, brand, None, ("h00001",)),
        ClickSession("h00001", brand, "m\\0", ("h00001", "h00001", "h00002")),
    ]
    got = SessionSet(brand, sessions).sessions
    assert len(got) == len(sessions)
    assert got[0] == sessions[0] and got[-1] == sessions[-1]
    for i in range(-len(sessions), len(sessions)):
        assert type(got[i]) is ClickSession and got[i] == sessions[i]
        assert all(map(operator.is_, got[i].clicks, sessions[i].clicks))
    for part in (slice(None), slice(1, 3), slice(-2, None), slice(None, None, -1),
                 slice(4, 0, -2), slice(3, 3), slice(-99, 99)):
        assert got[part] == tuple(sessions[part])
    assert list(got) == sessions
    with pytest.raises(IndexError):
        got[len(sessions)]
    with pytest.raises(IndexError):
        got[-len(sessions) - 1]
    assert got == SessionSet(brand, sessions).sessions
    assert got != SessionSet(brand, sessions[:-1]).sessions
    emptied = sessions[-1]._replace(clicks=())
    assert got != SessionSet(brand, [*sessions[:-1], emptied]).sessions

    cfg = tiny_cfg(n_markets=3, hotels_per_market=8, n_sessions_per_brand=300)
    generated = generate_sessions(generate_world(cfg), "A", cfg)
    for sset in (SessionSet(brand, sessions), generated):
        order = substream(42, "split", sset.brand).permutation(len(sset))
        shuffled = [sset.sessions[i] for i in order]
        parts = split_sessions(sset, (3, 1, 1), 42)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == len(sset) and all(sizes)
        for part, lo in zip(parts, (0, sizes[0], sizes[0] + sizes[1])):
            assert part.brand == sset.brand
            assert list(part.sessions) == shuffled[lo:lo + len(part)]


def test_loaded_sessions_hold_under_150_bytes_each(tmp_path):
    # one ClickSession and clicks tuple per session held about 215 bytes per
    # loaded session; as columns a session holds its id string and one
    # pointer per id, market and click, plus an int64 end (about 111)
    cfg = tiny_cfg(n_markets=5, hotels_per_market=200, latent_dim=8,
                   n_sessions_per_brand=20_000, session_length=(2, 5))
    synth.write_world(cfg, tmp_path)
    catalog = load_catalog(tmp_path / "catalog.jsonl")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_sessions(tmp_path / "sessions_A.jsonl", catalog, "A")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(loaded) == 20_000
    assert held / len(loaded) < 150


def test_world_meta_contents(tmp_path):
    cfg = tiny_cfg()
    p = tmp_path / "world-meta.json"
    write_world_meta(cfg, p)
    meta = json.loads(p.read_text())
    assert meta["n_markets"] == 2
    assert meta["session_length"] == [2, 4]
    assert meta["brands"] == ["A", "B"]
    assert meta["seed"] == 5
