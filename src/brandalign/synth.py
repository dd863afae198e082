"""Deterministic two-brand synthetic world generator.

A world is a shared hotel catalog with latent unit vectors driving both the
hotel features and the click dynamics. The two brands see the same hotels but
with different popularity reweightings, which is what the alignment machinery
has to bridge.
"""

import json
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .data import BrandMapping, HotelCatalog, HotelRecord, Sessions, SessionSet
from .rng import session_draws, substream

# spread of latent vectors around their market's mean direction
LATENT_SPREAD = 0.6
# sharpness of the similarity term in the click-transition kernel; at 1.0 the
# popularity noise swamps the latent structure and nothing is learnable at
# desk scale
KERNEL_SHARPNESS = 4.0


@dataclass(frozen=True)
class WorldConfig:
    n_markets: int = 5
    hotels_per_market: int = 200
    latent_dim: int = 8
    d_a_in: int = 8
    d_g_in: int = 2
    n_sessions_per_brand: int = 50_000
    session_length: tuple[int, int] = (2, 5)
    brand_bias_strength: float = 1.0
    overlap_fraction: float = 0.8
    seed: int = 42
    brands: tuple[str, str] = ("A", "B")

    def validate(self):
        lo, hi = self.session_length
        if lo < 2 or hi < lo:
            raise ValueError("session_length must satisfy 2 <= min <= max")
        sizes = {name: getattr(self, name) for name in ("n_markets", "hotels_per_market",
                 "latent_dim", "d_a_in", "d_g_in", "n_sessions_per_brand")}
        for name, value in {**sizes, "session_length": hi}.items():
            if not 1 <= value < 2 ** 63:  # numpy takes array sizes and draw bounds as int64
                raise ValueError(f"{name} must be positive and below 2**63, got {value}")
        if not 0 <= self.brand_bias_strength < np.inf:
            raise ValueError("brand_bias_strength must be finite and >= 0")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0,1]")
        if int(self.overlap_fraction * self.n_markets * self.hotels_per_market) < 1:
            raise ValueError("overlap_fraction too small: no hotel would be mapped")
        if len(set(self.brands)) < len(self.brands):
            raise ValueError(f"brand names must differ, got {list(self.brands)}")
        if any(os.sep in brand for brand in self.brands):  # write_world's file names
            raise ValueError(f"brand names must not hold {os.sep!r}, got {list(self.brands)}")


@dataclass
class World:
    """latent (|H| x latent_dim) and each brand_popularity[brand] (|H|) hold
    one row per catalog row."""
    config: WorldConfig
    catalog: HotelCatalog
    latent: np.ndarray
    brand_popularity: dict[str, np.ndarray]
    mapping: BrandMapping
    market_ids: list[str] = field(default_factory=list)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate_world(cfg: WorldConfig) -> World:
    cfg.validate()
    rng = substream(cfg.seed, "world")
    n_total = cfg.n_markets * cfg.hotels_per_market
    market_ids = [f"m{m:03d}" for m in range(cfg.n_markets)]

    # latent vectors: unit sphere, clustered around a per-market mean direction
    latent, hotels = [], []
    amenity_proj = substream(cfg.seed, "amenity-proj").normal(
        0.0, 0.5 / np.sqrt(cfg.latent_dim), size=(cfg.latent_dim, cfg.d_a_in))
    for m, market_id in enumerate(market_ids):
        mean_dir = _unit(rng.normal(size=cfg.latent_dim))
        center = rng.uniform(-0.8, 0.8, size=cfg.d_g_in)
        for j in range(cfg.hotels_per_market):
            hid = f"h{m * cfg.hotels_per_market + j:05d}"
            vec = _unit(mean_dir + LATENT_SPREAD * rng.normal(size=cfg.latent_dim))
            latent.append(vec)
            amenities = np.clip(0.5 + vec @ amenity_proj, 0.0, 1.0)
            geo = np.clip(center + rng.uniform(-0.05, 0.05, size=cfg.d_g_in), -1.0, 1.0)
            hotels.append(HotelRecord(hid, market_id, amenities, geo))
    catalog = HotelCatalog(hotels)

    # log-normal popularity with a base component shared by both brands;
    # brand_bias_strength scales only the brand-specific deviation, so at 0
    # the brands agree exactly and at large values they decorrelate
    pop_rng = substream(cfg.seed, "popularity")
    base = pop_rng.normal(size=n_total)
    with np.errstate(over="ignore"):
        brand_popularity = {
            brand: np.exp(base + cfg.brand_bias_strength * pop_rng.normal(size=n_total))
            for brand in cfg.brands}
        for brand, pop in brand_popularity.items():  # _walk sums them x kernel < e^5
            sums = np.bincount(catalog.market_codes, pop) * np.exp(KERNEL_SHARPNESS + 1)
            if not 0 < sums.min() <= sums.max() < np.inf:
                raise ValueError(f"brand_bias_strength {cfg.brand_bias_strength} puts "
                                 f"the click weights of brand {brand!r} past float range")

    n_mapped = int(cfg.overlap_fraction * n_total)
    mapping = BrandMapping({hid: hid for hid in catalog.hotel_ids[:n_mapped]})
    return World(cfg, catalog, np.array(latent), brand_popularity, mapping, market_ids)


def generate_sessions(world: World, brand: str, cfg: WorldConfig) -> SessionSet:
    """Popularity-and-similarity driven random walks within single markets.

    Session i draws from the brand's "sessions" substream, in this order:
    its market (uniform over world.market_ids), its length (uniform in
    cfg.session_length) and then one uniform per click. Its first click
    follows the brand's popularity in that market, and each next click
    exp(KERNEL_SHARPNESS * latent similarity to the current one) times
    popularity; a market's hotels are its catalog members, by ascending id,
    and a uniform at or past a CDF's last entry picks the last of them. The
    draws are made session by session; the walks then run market by market,
    one click of all that market's sessions at a time.
    """
    if brand not in cfg.brands:
        raise ValueError(f"unknown brand {brand!r}")
    catalog = world.catalog
    lo, hi = cfg.session_length

    # the draws: session i's uniforms are u[first[i]:first[i] + length[i]]
    market, length, u = session_draws(substream(cfg.seed, "sessions", brand),
                                      cfg.n_sessions_per_brand, len(world.market_ids), lo, hi)
    first = np.cumsum(length) - length

    # the walks: rows[first[i] + t] is the catalog row of session i's click t
    rows = np.empty(len(u), dtype=np.int32)
    code = {market_id: c for c, market_id in enumerate(catalog.market_ids)}
    for j, market_id in enumerate(world.market_ids):
        walking = np.flatnonzero(market == j)
        _walk(world, brand, catalog.members[code[market_id]], u,
              first[walking], length[walking], rows)
    del u, first

    return SessionSet(brand, Sessions(
        brand, [f"{brand}-s{i:07d}" for i in range(len(market))],
        map(world.market_ids.__getitem__, market.tolist()),
        rows, np.cumsum(length), catalog.hotel_ids))


def _walk(world: World, brand: str, members: np.ndarray, u: np.ndarray,
          at: np.ndarray, left: np.ndarray, rows: np.ndarray):
    """Walk the sessions of the market whose catalog rows are members: each
    session's first click reads u[at] and writes rows[at], and it has left
    clicks. Every step advances all the sessions still walking."""
    L, pop = world.latent[members], world.brand_popularity[brand][members]
    kernel = np.exp(KERNEL_SHARPNESS * (L @ L.T))
    cdfs = np.cumsum(kernel * pop[None, :], axis=1)
    start_cdf = np.cumsum(pop / pop.sum())
    last = len(members) - 1
    cur = np.minimum(np.searchsorted(start_cdf, u[at], side="right"), last)
    while True:
        rows[at] = members[cur]
        keep = left > 1
        at, cur, left = at[keep] + 1, cur[keep], left[keep] - 1
        if not len(at):
            return
        cur = np.minimum(_next_clicks(cdfs, cur, u[at] * cdfs[cur, -1]), last)


def _next_clicks(cdfs: np.ndarray, cur: np.ndarray, target: np.ndarray) -> np.ndarray:
    """searchsorted(cdfs[cur[s]], target[s], side="right") for each s: one
    call per distinct current row."""
    order = np.argsort(cur)
    by_row = cur[order]
    cuts = np.flatnonzero(by_row[1:] != by_row[:-1]) + 1
    nxt = np.empty_like(cur)
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(cur)]):
        group = order[a:b]
        nxt[group] = np.searchsorted(cdfs[by_row[a]], target[group], side="right")
    return nxt


# ---------------------------------------------------------------------------
# file emission (formats owned by the data module)

def write_world(cfg: WorldConfig, out_dir) -> tuple[World, dict[str, SessionSet]]:
    """Generate cfg's world and write its files to out_dir: catalog.jsonl,
    mapping.tsv, world-meta.json and one sessions_<brand>.jsonl per brand."""
    world = generate_world(cfg)
    # every brand's sessions first, so that a failed generation writes nothing
    sessions = {brand: generate_sessions(world, brand, cfg) for brand in cfg.brands}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_catalog(world.catalog, out / "catalog.jsonl")
    write_mapping(world.mapping, out / "mapping.tsv")
    write_world_meta(cfg, out / "world-meta.json")
    for brand, session_set in sessions.items():
        write_sessions(session_set, out / f"sessions_{brand}.jsonl")
    return world, sessions


def write_catalog(catalog: HotelCatalog, path):
    with open(path, "w", encoding="utf-8") as fh:
        for h in catalog.hotels:
            fh.write(json.dumps({
                "hotel_id": h.hotel_id,
                "market_id": h.market_id,
                "amenities": [float(x) for x in h.amenities],
                "geo": [float(x) for x in h.geo],
            }) + "\n")


def write_sessions(session_set: SessionSet, path):
    """One line per session, the bytes of json.dumps of its dict
    {session_id, brand, market_id, clicks}; each distinct string is encoded
    once."""
    s, encode = session_set.sessions, _Encodings().__getitem__
    brand, ends, codes = encode(s.brand), s.ends.tolist(), memoryview(s.codes)
    words = list(map(encode, s.vocab))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"session_id": {json.dumps(sid)}, "brand": {brand}, '
            f'"market_id": {encode(market)}, '
            f'"clicks": [{", ".join(map(words.__getitem__, codes[start:end]))}]}}\n'
            for sid, market, start, end in zip(s.ids, s.markets, [0, *ends], ends))


class _Encodings(dict):
    """json.dumps of a value, kept for a str. Other values are encoded each
    time: 1, 1.0 and True, or 0.0 and -0.0, are one dict key but differ in
    JSON."""

    def __missing__(self, value):
        text = json.dumps(value)
        if type(value) is str:
            self[value] = text
        return text


def write_mapping(mapping: BrandMapping, path):
    with open(path, "w", encoding="utf-8") as fh:
        for src in sorted(mapping.pairs):
            fh.write(f"{src}\t{mapping.pairs[src]}\n")


def write_world_meta(cfg: WorldConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
