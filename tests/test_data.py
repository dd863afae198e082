import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brandalign.align import read_projection
from brandalign.data import (BrandMapping, ClickSession, DataError, HotelCatalog,
                             HotelRecord, SessionSet, load_catalog, load_mapping,
                             load_sessions, split_sessions, split_sizes)
from brandalign.evaluate import _event_ranks, make_events
from brandalign.model import read_embeddings
from brandalign.pairs import build_epoch_stream
from conftest import make_catalog, make_sessions
from oracles import reference_epoch_stream, reference_event_ranks, reference_load_sessions


def _write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _catalog_obj(hid, market="m0", amenities=(0.5, 0.5), geo=(0.0, 0.0)):
    return {"hotel_id": hid, "market_id": market,
            "amenities": list(amenities), "geo": list(geo)}


# ---------------------------------------------------------------------------
# catalog loading

def test_load_catalog_two_records_one_market(tmp_path):
    path = tmp_path / "catalog.jsonl"
    _write_lines(path, [_catalog_obj("h0"), _catalog_obj("h1")])
    catalog = load_catalog(path)
    assert len(catalog) == 2
    assert set(catalog.markets) == {"m0"}
    assert catalog.markets["m0"] == {"h0", "h1"}


def test_load_catalog_empty_file_errors(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text("")
    with pytest.raises(DataError, match="empty catalog"):
        load_catalog(path)


def test_load_catalog_duplicate_id_names_the_id(tmp_path):
    path = tmp_path / "catalog.jsonl"
    _write_lines(path, [_catalog_obj("h7"), _catalog_obj("h7")])
    with pytest.raises(DataError, match="h7"):
        load_catalog(path)


def test_load_catalog_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text(json.dumps(_catalog_obj("h0")) + "\n{not json\n")
    with pytest.raises(DataError, match=":2:"):
        load_catalog(path)


@pytest.mark.parametrize("field,entry", [("amenities", "NaN"), ("geo", "NaN"),
                                         ("geo", "-Infinity")])
def test_load_catalog_rejects_non_finite_features(tmp_path, field, entry):
    # json.loads accepts these literals, and every comparison with nan is false
    path = tmp_path / "catalog.jsonl"
    bad = json.dumps(_catalog_obj("h1")).replace(
        f'"{field}": [0.', f'"{field}": [{entry}, 0.')
    path.write_text(json.dumps(_catalog_obj("h0")) + "\n" + bad + "\n")
    with pytest.raises(DataError, match=r"catalog.jsonl:2: hotel 'h1': non-finite"):
        load_catalog(path)


@pytest.mark.parametrize("line,field,value,error", [
    (2, "amenities", 5, "2: hotel 'h1': amenity entries must be a flat list of "
                        "2 numbers, got shape ()"),
    (2, "amenities", [[0.5, 0.5]], "2: hotel 'h1': amenity entries must be a "
                                   "flat list of 2 numbers, got shape (1, 2)"),
    (2, "geo", [0.0], "2: hotel 'h1': geo length 1 != 2 of hotel 'h0'"),
    (1, "geo", True, "1: hotel 'h0': geo entries must be a flat list of "
                     "numbers, got shape ()"),
    # a short list on line 1 is found on line 2, which names line 1's hotel
    (1, "geo", [0.0], "2: hotel 'h1': geo length 2 != 1 of hotel 'h0'"),
    (1, "amenities", [10 ** 400], "1: bad catalog record"),
])
def test_load_catalog_rejects_bad_feature_shapes(tmp_path, line, field, value,
                                                 error):
    records = [_catalog_obj("h0"), _catalog_obj("h1")]
    records[line - 1][field] = value
    path = tmp_path / "catalog.jsonl"
    _write_lines(path, records)
    with pytest.raises(DataError) as info:
        load_catalog(path)
    assert str(info.value).startswith(f"{path}:{error}")


def test_load_catalog_names_the_line_of_a_duplicate_or_out_of_range_hotel(tmp_path):
    path = tmp_path / "catalog.jsonl"
    _write_lines(path, [_catalog_obj("h0"), _catalog_obj("h1"), _catalog_obj("h0")])
    with pytest.raises(DataError, match=r"catalog.jsonl:3: duplicate hotel_id 'h0'"):
        load_catalog(path)
    _write_lines(path, [_catalog_obj("h0"), _catalog_obj("h1", geo=(0.0, 3.0))])
    with pytest.raises(DataError, match=r"catalog.jsonl:2: hotel 'h1': geo entries"):
        load_catalog(path)


@pytest.mark.parametrize("hid", ["a b", ""])
def test_load_catalog_rejects_an_empty_id_or_one_with_whitespace(tmp_path, hid):
    # embedding files split their lines on whitespace, so such an id was
    # written by train and then rejected by eval's read_embeddings
    path = tmp_path / "catalog.jsonl"
    _write_lines(path, [_catalog_obj("h0"), _catalog_obj(hid)])
    with pytest.raises(DataError) as info:
        load_catalog(path)
    assert str(info.value) == (f"{path}:2: hotel {hid!r}: id is empty or "
                               f"holds whitespace")


def test_catalog_features_are_amenities_then_geo(catalog6):
    for i, h in enumerate(catalog6.hotels):
        assert np.array_equal(catalog6.features[i], np.concatenate([h.amenities, h.geo]))
    assert catalog6.features.shape == (6, catalog6.amenity_dim + catalog6.geo_dim)


def test_catalog_range_checks_reject_nan():
    nan_amenity = [HotelRecord("h0", "m0", np.array([np.nan, 0.0]), np.array([0.0, 0.0]))]
    with pytest.raises(DataError, match="amenity"):
        HotelCatalog(nan_amenity)
    nan_geo = [HotelRecord("h0", "m0", np.array([0.5, 0.0]), np.array([np.nan, 0.0]))]
    with pytest.raises(DataError, match="geo"):
        HotelCatalog(nan_geo)


def test_catalog_rejects_inconsistent_feature_lengths():
    hotels = [
        HotelRecord("h0", "m0", np.array([0.1, 0.2]), np.array([0.0, 0.0])),
        HotelRecord("h1", "m0", np.array([0.1]), np.array([0.0, 0.0])),
    ]
    with pytest.raises(DataError, match="amenity length"):
        HotelCatalog(hotels)


def test_catalog_rejects_out_of_range_features():
    bad_amenity = [HotelRecord("h0", "m0", np.array([1.5, 0.0]), np.array([0.0, 0.0]))]
    with pytest.raises(DataError, match="amenity"):
        HotelCatalog(bad_amenity)
    bad_geo = [HotelRecord("h0", "m0", np.array([0.5, 0.0]), np.array([0.0, -2.0]))]
    with pytest.raises(DataError, match="geo"):
        HotelCatalog(bad_geo)


def test_market_table_of_interleaved_markets_with_ids_out_of_row_order():
    # rows h10, h2, h1 of "m" sort as h1, h10, h2; "m\0" is its own market
    layout = [("h10", "m"), ("h3", "m\0"), ("h2", "m"), ("h7", "m\0"),
              ("h1", "m"), ("h30", "m\0"), ("h4", "m\0")]
    rng = np.random.default_rng(5)
    catalog = HotelCatalog([HotelRecord(h, m, rng.uniform(0, 1, 2), rng.uniform(-1, 1, 2))
                            for h, m in layout])
    assert catalog.market_ids == ["m", "m\0"]
    assert catalog.id_order.tolist() == [4, 0, 2, 1, 5, 6, 3]
    assert [[catalog.hotel_ids[r] for r in rows] for rows in catalog.members] == [
        ["h1", "h10", "h2"], ["h3", "h30", "h4", "h7"]]

    sessions = SessionSet("A", [
        ClickSession("s0", "A", "m", ("h10", "h2", "h1", "h10")),
        ClickSession("s1", "A", "m\0", ("h7", "h30", "h4", "h3", "h30")),
        ClickSession("s2", "A", "m", ("h2", "h7", "h1"))])  # h7 is in "m\0"
    ids = catalog.hotel_ids
    for epoch in range(3):
        got_skips, want_skips = [0], [0]
        got = [tuple(ids[i] for i in pair) for pair in build_epoch_stream(
            sessions, catalog, 2, 2, 9, epoch, got_skips)]
        want = [(p.target, p.context, *p.negatives) for p in reference_epoch_stream(
            sessions, catalog, 2, 2, 9, epoch, want_skips)]
        assert got == want and got_skips == want_skips

    events = make_events(sessions, catalog)
    # two vectors only, so most candidates tie and the id order decides
    vectors = {h: [1.0, float(i % 2)] for i, h in enumerate(ids)}
    for mode in ("cosine", "model"):
        for pool in ("market", "global"):
            args = (events, catalog, vectors.get, 2, mode)
            ranks, skipped, missing = _event_ranks(*args, pool=pool)
            assert (ranks.tolist(), skipped, missing) == reference_event_ranks(
                *args, pool=pool)


# ---------------------------------------------------------------------------
# session loading

def _session_obj(sid, clicks, brand="A", market="m0"):
    return {"session_id": sid, "brand": brand, "market_id": market,
            "clicks": list(clicks)}


def test_load_sessions_three_valid(tmp_path, catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", ["h0", "h1"]),
                        _session_obj("s1", ["h1", "h2"]),
                        _session_obj("s2", ["h2", "h0", "h1"])])
    assert len(load_sessions(path, catalog6, "A")) == 3


def test_loaders_share_one_string_per_id_market_and_brand(tmp_path):
    # json makes every value a fresh string, one copy of an id per click
    catalog_path, sessions_path = tmp_path / "catalog.jsonl", tmp_path / "sessions.jsonl"
    _write_lines(catalog_path, [_catalog_obj(h, market="market-0")
                                for h in ("hotel-0", "hotel-1", 2)])
    _write_lines(sessions_path, [_session_obj(f"s{i}", ["hotel-0", "hotel-1", 2, "hotel-0"],
                                              brand="brand-A", market="market-0")
                                 for i in range(3)])
    catalog = load_catalog(catalog_path)
    sessions = load_sessions(sessions_path, catalog, "brand-A").sessions
    clicks = [c for s in sessions for c in s.clicks]
    assert len({id(c) for c in clicks}) == 3
    assert all(c is catalog.hotel_ids[catalog.index[c]] for c in clicks)
    assert all(s.market_id is catalog.hotels[0].market_id for s in sessions)
    assert all(s.brand is sessions[0].brand for s in sessions)


def test_load_sessions_unknown_hotel_names_it(tmp_path, catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", ["h0", "Z9"])])
    with pytest.raises(DataError, match="Z9"):
        load_sessions(path, catalog6, "A")


def test_load_sessions_single_click_accepted(tmp_path, catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", ["h0"])])
    sset = load_sessions(path, catalog6, "A")
    assert len(sset) == 1
    assert sset.sessions[0].clicks == ("h0",)


def test_load_sessions_empty_clicks_error(tmp_path, catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", [])])
    with pytest.raises(DataError, match="no clicks"):
        load_sessions(path, catalog6, "A")


@pytest.mark.parametrize("clicks", ["h0", 5, {"h0": 1}, None])
def test_load_sessions_clicks_must_be_a_list(tmp_path, catalog6, clicks):
    # a string used to be read as its characters: "unknown hotel 'h'"
    path = tmp_path / "sessions.jsonl"
    obj = _session_obj("s0", [])
    obj["clicks"] = clicks
    _write_lines(path, [_session_obj("s1", ["h0", "h1"]), obj])
    with pytest.raises(DataError, match=r"sessions.jsonl:2: bad session record: "
                                        r"clicks must be a list"):
        load_sessions(path, catalog6, "A")


def test_load_sessions_brand_mismatch_error(tmp_path, catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", ["h0", "h1"], brand="B")])
    with pytest.raises(DataError, match="brand"):
        load_sessions(path, catalog6, "A")


def test_load_sessions_cross_market_click_warns(tmp_path, catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", ["h0", "h3"], market="m0")])
    with pytest.warns(UserWarning, match="outside market"):
        load_sessions(path, catalog6, "A")


def test_load_sessions_warns_once_per_file_for_outside_market_clicks(tmp_path,
                                                                    catalog6):
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, [_session_obj("s0", ["h0", "h1"]),
                        _session_obj("s1", ["h0", "h3"]),
                        _session_obj("s2", ["h4", "h1", "h5"])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_sessions(path, catalog6, "A")
    assert [str(w.message) for w in caught] == [
        f"{path}:2: session 's1' click 'h3' is outside market 'm0' "
        f"(3 click(s) in this file are outside their session's market)"]


def test_load_sessions_first_error_and_warning_text_are_pinned(tmp_path, catalog6):
    # an out-of-market click, a market the catalog lacks, an unknown hotel
    lines = [_session_obj("s0", ["h0", "h3"]),
             _session_obj("s1", ["h1", "h2"], market="mZ"),
             _session_obj("s2", ["h4", "Z9", "h5"], market="m1")]
    path = tmp_path / "sessions.jsonl"
    _write_lines(path, lines)
    with pytest.raises(DataError) as caught:
        load_sessions(path, catalog6, "A")
    assert str(caught.value) == f"{path}:3: session 's2' references unknown hotel 'Z9'"
    _write_lines(path, lines[:2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_sessions(path, catalog6, "A")
    assert [str(w.message) for w in caught] == [
        f"{path}:1: session 's0' click 'h3' is outside market 'm0' "
        f"(3 click(s) in this file are outside their session's market)"]


# ids "7" and "8" are what the int clicks 7 and 8 read as
_ORACLE_CATALOG = make_catalog({"m0": ["h0", "h1", "7"], "m1": ["h3", "8"]})
_CLICKS = ["h0", "h1", "7", "h0", "h1", "7", "h3", "8", 7, 8, "Z9", 12,
           float("nan")]
_PADDING = ["", " ", "\t", "\x0c", "\u3000"]


@st.composite
def _session_line(draw) -> str:
    """A line of a session file: mostly a record, sometimes mangled."""
    kind = draw(st.sampled_from(["record"] * 6 + ["value", "blank", "deep"]))
    if kind == "blank":
        return draw(st.sampled_from(_PADDING))
    if kind == "deep":  # nested past the recursion limit
        return "[" * 5000
    if kind == "value":
        text = json.dumps(draw(st.sampled_from([5, "x", None, [], [1], {}, 1.5])))
    else:
        obj = {"session_id": draw(st.one_of(st.sampled_from(["s0", "s1"]),
                                            st.integers(-3, 3), st.just(float("nan")))),
               "brand": draw(st.sampled_from(["A", "A", "A", "B"])),
               "market_id": draw(st.sampled_from(["m0", "m0", "m1", "mX"])),
               "clicks": draw(st.one_of(st.lists(st.sampled_from(_CLICKS), max_size=4),
                                        st.sampled_from(["h0", 5, None, {"h0": 1}])))}
        if draw(st.integers(0, 9)) == 0:
            del obj[draw(st.sampled_from(sorted(obj)))]
        text = json.dumps(obj)
    mangle = draw(st.sampled_from(["none"] * 5 + ["truncate", "garbage", "twice",
                                                  "bom", "pad"]))
    if mangle == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mangle == "garbage":
        text += draw(st.sampled_from([" x", "}", "]", ",", " 1", "  null", "\x0c{"]))
    elif mangle == "twice":  # two objects on one line
        text += draw(st.sampled_from(["", " ", "\t"])) + text
    elif mangle == "bom":
        text = "\ufeff" + text
    elif mangle == "pad":
        text = draw(st.sampled_from(_PADDING)) + text + draw(st.sampled_from(_PADDING))
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_session_line(), min_size=1, max_size=6))
def test_load_sessions_agrees_with_the_line_by_line_oracle(tmp_path, lines):
    path = tmp_path / "sessions.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    hotel_market = {h.hotel_id: h.market_id for h in _ORACLE_CATALOG.hotels}
    try:
        sessions, warning = reference_load_sessions(path, hotel_market, "A")
    except ValueError as exc:
        with pytest.raises(DataError) as caught:
            load_sessions(path, _ORACLE_CATALOG, "A")
        assert str(caught.value) == str(exc)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_sessions(path, _ORACLE_CATALOG, "A")
    assert [tuple(s) for s in loaded.sessions] == sessions
    assert [str(w.message) for w in caught] == ([warning] if warning else [])


# ---------------------------------------------------------------------------
# sessions

def test_click_session_is_a_named_tuple():
    s = ClickSession("s0", "A", "m0", ("h0", "h1"))
    assert ClickSession._fields == ("session_id", "brand", "market_id", "clicks")
    assert (s.session_id, s.brand, s.market_id, s.clicks) == ("s0", "A", "m0", ("h0", "h1"))
    assert s == ("s0", "A", "m0", ("h0", "h1"))


def test_session_set_rejects_a_session_of_another_brand():
    sessions = [ClickSession("s0", "A", "m0", ("h0",)),
                ClickSession("s1", "B", "m0", ("h0",))]
    with pytest.raises(DataError, match=r"^session 's1' has brand 'B', expected 'A'$"):
        SessionSet("A", sessions)


# ---------------------------------------------------------------------------
# invalid UTF-8 in any input file

def _jsonl(objs) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objs)


@pytest.mark.parametrize("name, text, read", [
    ("catalog.jsonl", _jsonl(_catalog_obj(f"h{i}") for i in range(3)), load_catalog),
    ("sessions.jsonl", _jsonl(_session_obj(f"s{i}", ["h0", "h1"]) for i in range(3)),
     lambda path: load_sessions(path, make_catalog({"m0": ["h0", "h1"]}), "A")),
    ("mapping.tsv", "a1\tb1\na2\tb2\na3\tb3\n", load_mapping),
    ("a.emb", "2 2\nh0 0.1 0.2\nh1 0.3 0.4\n", read_embeddings),
    ("w.proj", "2 2 orthogonal\n1.0 0.0\n0.0 1.0\n", read_projection),
], ids=["catalog", "sessions", "mapping", "embeddings", "projection"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_invalid_utf8_names_the_line(tmp_path, name, text, read, newline):
    # the decoder's own message gives an offset into a read buffer
    lines = text.replace("\n", newline).encode().split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][4:]
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2: not UTF-8: invalid start byte"


# ---------------------------------------------------------------------------
# mapping loading

def test_load_mapping_roundtrip(tmp_path):
    path = tmp_path / "mapping.tsv"
    path.write_text("a1\tb1\na2\tb2\n")
    mapping = load_mapping(path)
    assert mapping.pairs["a1"] == "b1"
    assert mapping.to_source("b2") == "a2"
    assert mapping.to_source("unknown") is None


def test_load_mapping_duplicate_source_errors(tmp_path):
    path = tmp_path / "mapping.tsv"
    path.write_text("a1\tb1\na1\tb2\n")
    with pytest.raises(DataError, match="duplicate source"):
        load_mapping(path)


def test_load_mapping_bad_column_count(tmp_path):
    path = tmp_path / "mapping.tsv"
    path.write_text("a1\tb1\tc1\n")
    with pytest.raises(DataError, match="2 tab-separated columns"):
        load_mapping(path)


def test_load_mapping_checks_catalogs(tmp_path, catalog6):
    path = tmp_path / "mapping.tsv"
    path.write_text("h0\tnope\n")
    with pytest.raises(DataError, match="nope"):
        load_mapping(path, source_catalog=catalog6, target_catalog=catalog6)


def test_load_mapping_repeated_target_names_path_and_line(tmp_path):
    path = tmp_path / "mapping.tsv"
    path.write_text("a1\tb1\na2\tb2\n\na3\tb1\n")
    with pytest.raises(DataError) as raised:
        load_mapping(path)
    assert str(raised.value) == \
        f"{path}:4: mapping not injective: target 'b1' repeated from line 1"


def test_mapping_rejects_repeated_target():
    with pytest.raises(DataError, match="not injective"):
        BrandMapping({"a1": "b1", "a2": "b1"})


def test_mapping_inverse_is_identity_on_domain():
    mapping = BrandMapping({"a1": "b1", "a2": "b2", "a3": "b3"})
    for src in mapping.pairs:
        assert mapping.to_source(mapping.pairs[src]) == src


# ---------------------------------------------------------------------------
# splits

def test_split_sizes_ten_sessions_paper_ratio():
    assert split_sizes(10, (8, 1, 1)) == (8, 1, 1)


def test_split_sizes_seven_sessions_remainder_rule():
    assert split_sizes(7, (8, 1, 1)) == (5, 1, 1)


# Hand-enumerated allocation for n = 1..20 at ratios 8:1:1: floors of the
# exact shares, leftover handed out one at a time cycling val, test, train.
SPLIT_TABLE = {
    1: (0, 1, 0), 2: (1, 1, 0), 3: (2, 1, 0), 4: (3, 1, 0), 5: (4, 1, 0),
    6: (4, 1, 1), 7: (5, 1, 1), 8: (6, 1, 1), 9: (7, 1, 1), 10: (8, 1, 1),
    11: (8, 2, 1), 12: (9, 2, 1), 13: (10, 2, 1), 14: (11, 2, 1), 15: (12, 2, 1),
    16: (12, 2, 2), 17: (13, 2, 2), 18: (14, 2, 2), 19: (15, 2, 2), 20: (16, 2, 2),
}


@pytest.mark.parametrize("n,expected", sorted(SPLIT_TABLE.items()))
def test_split_sizes_frozen_table(n, expected):
    assert split_sizes(n, (8, 1, 1)) == expected


def test_split_sizes_all_zero_ratios_error():
    with pytest.raises(ValueError):
        split_sizes(5, (0, 0, 0))
    with pytest.raises(ValueError):
        split_sizes(5, (1, -1, 1))


def test_split_sizes_zero_ratio_part_stays_empty():
    train, val, test = split_sizes(9, (1, 0, 1))
    assert val == 0
    assert train + test == 9


@given(n=st.integers(0, 300),
       ratios=st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
       .filter(lambda r: sum(r) > 0))
@settings(max_examples=300, deadline=None)
def test_split_sizes_partition_property(n, ratios):
    sizes = split_sizes(n, ratios)
    assert sum(sizes) == n
    assert all(s >= 0 for s in sizes)
    for s, r in zip(sizes, ratios):
        if r == 0:
            assert s == 0


def _ten_sessions(catalog):
    return make_sessions("A", [["h0", "h1"]] * 10, catalog)


def test_split_sessions_partition_and_determinism(catalog6):
    sset = make_sessions("A", [["h0", "h1", "h2"] for _ in range(13)], catalog6)
    parts1 = split_sessions(sset, (8, 1, 1), seed=5)
    parts2 = split_sessions(sset, (8, 1, 1), seed=5)
    ids = [sorted(s.session_id for s in p.sessions) for p in parts1]
    assert [len(p) for p in parts1] == [10, 2, 1]
    # disjoint and union-preserving
    all_ids = ids[0] + ids[1] + ids[2]
    assert sorted(all_ids) == sorted(s.session_id for s in sset.sessions)
    assert len(set(all_ids)) == len(all_ids)
    # deterministic under the seed
    for p1, p2 in zip(parts1, parts2):
        assert [s.session_id for s in p1.sessions] == [s.session_id for s in p2.sessions]


def test_split_sessions_sizes_do_not_depend_on_seed(catalog6):
    sset = make_sessions("A", [["h0", "h1"]] * 17, catalog6)
    sizes = {tuple(len(p) for p in split_sessions(sset, (8, 1, 1), seed))
             for seed in range(10)}
    assert sizes == {split_sizes(17, (8, 1, 1))}


def test_split_sessions_different_seed_different_shuffle(catalog6):
    sset = make_sessions("A", [["h0", "h1"]] * 40, catalog6)
    a = split_sessions(sset, (8, 1, 1), seed=1)
    b = split_sessions(sset, (8, 1, 1), seed=2)
    assert [s.session_id for s in a[0].sessions] != [s.session_id for s in b[0].sessions]
