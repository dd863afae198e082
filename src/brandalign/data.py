"""Domain types and file loaders: catalogs, sessions, brand mappings, splits.

File formats (all UTF-8):
  catalog:  one JSON object per line with keys hotel_id, market_id,
            amenities (list of numbers in [0,1]), geo (list in [-1,1]);
            hotel ids are non-empty and hold no whitespace: embedding
            files are whitespace-separated and mapping files tab-separated
  sessions: one JSON object per line with keys session_id, brand,
            market_id, clicks (list of hotel-id strings)
  mapping:  tab-separated `source_hotel_id<TAB>target_hotel_id`, no header

A loaded session's clicks are int32 catalog rows; the loaders hand out one
string object per distinct hotel id, market id and brand (sys.intern).
"""

import contextlib
import json
import re
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from sys import intern
from typing import NamedTuple

import numpy as np

from .rng import substream


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def parse_numbers(fields, cast, path, lineno: int) -> list:
    """fields cast by int or float; a malformed one is a DataError naming
    path and line."""
    try:
        return [cast(x) for x in fields]
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


@contextlib.contextmanager
def open_text(path):
    """path opened for reading as UTF-8 text. Invalid UTF-8 met while it is
    read is a DataError naming the line; only then is the file read again,
    with the bad bytes escaped, so that lines count as the reader counts them."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, encoding="utf-8", errors="surrogateescape") as again:
                lineno = next(i for i, line in enumerate(again, start=1)
                              if re.search("[\udc80-\udcff]", line))
            raise DataError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None


def check_finite(matrix: np.ndarray, path, linenos: list[int]):
    """Reject nan/inf in a matrix read from path; linenos[i] is row i's line."""
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[int(np.argmin(finite))]}: "
                        f"non-finite coordinate")


@dataclass(frozen=True)
class HotelRecord:
    hotel_id: str
    market_id: str
    amenities: np.ndarray  # entries in [0, 1]
    geo: np.ndarray        # entries in [-1, 1]


def _record_problem(h: HotelRecord, first: HotelRecord) -> str | None:
    """What is wrong with h's features, whose lengths must be the first
    hotel's; None when nothing is."""
    # json.loads accepts NaN and Infinity
    if not (np.isfinite(h.amenities).all() and np.isfinite(h.geo).all()):
        return "non-finite amenity or geo entry"
    for name, values, model in (("amenity", h.amenities, first.amenities),
                                ("geo", h.geo, first.geo)):
        if np.ndim(values) != 1:
            length = "" if h is first else f"{len(model)} "
            return (f"{name} entries must be a flat list of {length}numbers, "
                    f"got shape {np.shape(values)}")
        if len(values) != len(model):
            return (f"{name} length {len(values)} != {len(model)} of hotel "
                    f"{first.hotel_id!r}")
    if not np.all((h.amenities >= 0) & (h.amenities <= 1)):
        return "amenity entries outside [0,1]"
    if not np.all((h.geo >= -1) & (h.geo <= 1)):
        return "geo entries outside [-1,1]"
    return None


class CatalogError(DataError):
    """A bad hotel record; row is its position in the catalog's input."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class HotelCatalog:
    """Immutable-after-construction hotel universe with market grouping;
    features has one row per hotel: its amenities, then its geo."""

    def __init__(self, hotels: list[HotelRecord]):
        if not hotels:
            raise DataError("empty catalog")
        self.hotels = list(hotels)
        self.index: dict[str, int] = {}  # hotel id -> row, the shared id order
        first = self.hotels[0]
        for row, h in enumerate(self.hotels):
            if h.hotel_id.split() != [h.hotel_id]:  # as read_embeddings splits
                raise CatalogError(row, f"hotel {h.hotel_id!r}: id is empty or "
                                        f"holds whitespace")
            if h.hotel_id in self.index:
                raise CatalogError(row, f"duplicate hotel_id {h.hotel_id!r}")
            problem = _record_problem(h, first)
            if problem:
                raise CatalogError(row, f"hotel {h.hotel_id!r}: {problem}")
            self.index[h.hotel_id] = row
        self.amenity_dim = len(first.amenities)
        self.geo_dim = len(first.geo)
        self.features = np.hstack([np.stack([h.amenities for h in self.hotels]),
                                   np.stack([h.geo for h in self.hotels])])
        self.hotel_ids = list(self.index)
        # row -> market code, a position in market_ids; not np.unique, whose
        # fixed-width strings drop trailing NULs and would merge "m" and "m\0"
        self.market_ids = sorted({h.market_id for h in self.hotels})
        code = {m: i for i, m in enumerate(self.market_ids)}
        self.market_codes = np.array([code[h.market_id] for h in self.hotels], np.intp)
        # rows in ascending hotel id (Python string order), and members[code]
        # the market's rows in that order
        self.id_order = np.array(sorted(range(len(self.hotels)),
                                        key=self.hotel_ids.__getitem__), np.intp)
        by_market = self.id_order[np.argsort(self.market_codes[self.id_order],
                                             kind="stable")]
        self.members = np.split(by_market, np.cumsum(np.bincount(self.market_codes))[:-1])

    def __len__(self) -> int:
        return len(self.hotels)

    def __contains__(self, hotel_id: str) -> bool:
        return hotel_id in self.index

    def market_of(self, hotel_id: str) -> str:
        try:
            return self.market_ids[self.market_codes[self.index[hotel_id]]]
        except KeyError:
            raise DataError(f"unknown hotel_id {hotel_id!r}") from None


class ClickSession(NamedTuple):
    session_id: str
    brand: str
    market_id: str
    clicks: tuple[str, ...]


class Sessions(Sequence):
    """Read-only sessions of one brand as columns, in Apache Arrow's list
    layout, clicks dictionary-encoded: session i's clicks are vocab[c] for each
    c in codes[ends[i - 1]:ends[i]] (a read-only int32 array). A loaded or
    generated set's vocab is its catalog's hotel_ids, so codes are catalog
    rows; one built from ClickSessions keeps the click objects given as vocab,
    coded 0..n-1. A slice and split_sessions share one gather, take."""

    def __init__(self, brand, ids, markets, codes, ends, vocab):
        self.brand, self.ids, self.markets = brand, tuple(ids), tuple(markets)
        self.codes, self.ends = np.array(codes, np.int32), np.array(ends, np.int64)
        self.codes.flags.writeable = self.ends.flags.writeable = False
        self.vocab = vocab

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(*i.indices(len(self))))
        i = range(len(self))[i]
        codes = self.codes[self.ends[i - 1] if i else 0:self.ends[i]].tolist()
        return ClickSession(self.ids[i], self.brand, self.markets[i],
                            tuple(map(self.vocab.__getitem__, codes)))

    def take(self, rows: np.ndarray) -> "Sessions":
        """The sessions at positions rows (nonnegative), in that order."""
        at, ends = rows.tolist(), self.ends[rows]
        lengths = ends - np.where(rows > 0, self.ends[rows - 1], 0)
        taken = np.cumsum(lengths)  # click k of taken session j is k + ends[j] - taken[j]
        flat = np.repeat(ends - taken, lengths) + np.arange(lengths.sum())
        return Sessions(self.brand, [self.ids[i] for i in at], [self.markets[i] for i in at],
                        self.codes[flat], taken, self.vocab)

    def catalog_rows(self, catalog: "HotelCatalog") -> np.ndarray:
        """Each click's catalog row, one lookup per vocab entry; a click outside
        the catalog is ~its vocab position (-1 - position)."""
        n = len(self.vocab)
        return np.fromiter(map(catalog.index.get, self.vocab, range(-1, -n - 1, -1)),
                           np.int32, n)[self.codes]

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass(frozen=True, eq=False)
class SessionSet:
    """Immutable: sessions is a Sessions; _events is make_events' memo."""
    brand: str
    sessions: Sessions = ()
    _events: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        given, brand = self.sessions, self.brand
        if isinstance(given, Sessions) and given.brand == brand:
            return
        ids, markets, clicks, ends = [], [], [], array("q")
        for s in given:
            if s.brand != brand:
                raise DataError(
                    f"session {s.session_id!r} has brand {s.brand!r}, expected {brand!r}")
            ids.append(s.session_id)
            markets.append(s.market_id)
            clicks.extend(s.clicks)
            ends.append(len(clicks))
        sessions = Sessions(brand, ids, markets, np.arange(len(clicks)), ends, tuple(clicks))
        object.__setattr__(self, "sessions", sessions)

    def __len__(self) -> int:
        return len(self.sessions)


class BrandMapping:
    """One-to-one hotel correspondence from a source brand to a target brand."""

    def __init__(self, pairs: dict[str, str]):
        self.pairs = dict(pairs)
        seen_targets = set()
        for src, tgt in self.pairs.items():
            if tgt in seen_targets:
                raise DataError(f"mapping not injective: target {tgt!r} repeated")
            seen_targets.add(tgt)
        self._inverse = {tgt: src for src, tgt in self.pairs.items()}

    def __len__(self) -> int:
        return len(self.pairs)

    def to_source(self, target_id: str) -> str | None:
        return self._inverse.get(target_id)


_raw_decode = json.JSONDecoder().raw_decode


def _loads(line: str):
    """json.loads(line) for a stripped line, in one raw_decode call; json.loads
    itself runs only on a line that raw_decode rejects or does not consume,
    to raise its own error ("Extra data", a BOM, ...)."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _parse_lines(path):
    """(line number, JSON value) of each non-blank line; a malformed line, one
    nested deeper than the recursion limit or one holding an integer of more
    digits than int() converts, is a DataError naming path and line."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, _loads(line)
            except (ValueError, RecursionError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc


def load_catalog(path) -> HotelCatalog:
    hotels, linenos = [], []
    for lineno, obj in _parse_lines(path):
        try:
            record = HotelRecord(
                hotel_id=intern(str(obj["hotel_id"])),
                market_id=intern(str(obj["market_id"])),
                amenities=np.asarray(obj["amenities"], dtype=float),
                geo=np.asarray(obj["geo"], dtype=float),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: bad catalog record: {exc}") from exc
        hotels.append(record)
        linenos.append(lineno)
    try:
        return HotelCatalog(hotels)
    except CatalogError as exc:
        raise DataError(f"{path}:{linenos[exc.row]}: {exc}") from None


def load_sessions(path, catalog: HotelCatalog, brand: str) -> SessionSet:
    ids, markets, codes, ends, linenos = [], [], array("i"), array("q"), array("q")
    for lineno, obj in _parse_lines(path):
        try:
            if not isinstance(obj["clicks"], list):
                raise TypeError(f"clicks must be a list of hotel ids, got "
                                f"{type(obj['clicks']).__name__}")
            sid, session_brand = str(obj["session_id"]), intern(str(obj["brand"]))
            market = intern(str(obj["market_id"]))
            these = list(map(str, obj["clicks"]))
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad session record: {exc}") from exc
        if not these:
            raise DataError(f"{path}:{lineno}: session {sid!r} has no clicks")
        try:
            codes.extend(map(catalog.index.__getitem__, these))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: session {sid!r} references unknown "
                            f"hotel {exc.args[0]!r}") from None
        if session_brand != brand:
            raise DataError(f"{path}:{lineno}: session {sid!r} has brand "
                            f"{session_brand!r}, expected {brand!r}")
        ids.append(sid)
        markets.append(market)
        ends.append(len(codes))
        linenos.append(lineno)
    # clicks outside their session's market (code -1 if not in the catalog),
    # compared as int32 over a view of the codes
    code, rows = {m: c for c, m in enumerate(catalog.market_ids)}, np.asarray(codes)
    outside = np.flatnonzero(catalog.market_codes.astype(np.int32)[rows] != np.repeat(
        np.array([code.get(m, -1) for m in markets], np.int32), np.diff(ends, prepend=0)))
    if len(outside):
        i = np.searchsorted(ends, outside[0], "right")
        warnings.warn(f"{path}:{linenos[i]}: session {ids[i]!r} click "
                      f"{catalog.hotel_ids[rows[outside[0]]]!r} is outside market "
                      f"{markets[i]!r} ({len(outside)} click(s) in this file are outside "
                      f"their session's market)")
    return SessionSet(brand, Sessions(brand, ids, markets, codes, ends, catalog.hotel_ids))


def load_mapping(path, source_catalog: HotelCatalog | None = None,
                 target_catalog: HotelCatalog | None = None) -> BrandMapping:
    pairs, targets = {}, {}  # target -> its line
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated columns")
            src, tgt = cols
            if src in pairs:
                raise DataError(f"{path}:{lineno}: duplicate source id {src!r}")
            if source_catalog is not None and src not in source_catalog:
                raise DataError(f"{path}:{lineno}: unknown source hotel {src!r}")
            if target_catalog is not None and tgt not in target_catalog:
                raise DataError(f"{path}:{lineno}: unknown target hotel {tgt!r}")
            if targets.setdefault(tgt, lineno) != lineno:
                raise DataError(f"{path}:{lineno}: mapping not injective: target "
                                f"{tgt!r} repeated from line {targets[tgt]}")
            pairs[src] = tgt
    return BrandMapping(pairs)


def split_sizes(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """Allocate n sessions to (train, val, test) by normalized ratio.

    Each part gets the floor of its exact share; leftover sessions are handed
    out one at a time cycling val, test, train, so small eval sets stay
    non-empty at desk scale. Depends only on (n, ratios), never on the seed.
    """
    total = sum(ratios)
    if not all(0 <= r < np.inf for r in ratios) or not 0 < total < np.inf:
        raise ValueError("ratios must be finite, nonnegative and sum to a positive value")
    exact = [n * r / total for r in ratios]
    sizes = [int(np.floor(e)) for e in exact]
    leftover = n - sum(sizes)
    order = [p for p in (1, 2, 0) if ratios[p] > 0]  # val, test, train
    i = 0
    while leftover > 0:
        sizes[order[i % len(order)]] += 1
        leftover -= 1
        i += 1
    return tuple(sizes)


def split_sessions(session_set: SessionSet, ratios: tuple[float, float, float],
                   seed: int) -> tuple[SessionSet, SessionSet, SessionSet]:
    """Deterministic train/val/test partition: shuffle by seed, then slice."""
    order = substream(seed, "split", session_set.brand).permutation(len(session_set))
    parts = np.split(order, np.cumsum(split_sizes(len(session_set), ratios))[:2])
    return tuple(SessionSet(session_set.brand, session_set.sessions.take(p)) for p in parts)
