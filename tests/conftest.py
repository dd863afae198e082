"""Shared fixtures and small world builders for the test suite."""

import numpy as np
import pytest

from brandalign.data import ClickSession, HotelCatalog, HotelRecord, SessionSet
from brandalign.model import EmbeddingSpace


def make_catalog(markets: dict[str, list[str]], d_a: int = 2, d_g: int = 2,
                 seed: int = 0) -> HotelCatalog:
    """Catalog with the given market -> hotel-id layout and random features."""
    rng = np.random.default_rng(seed)
    hotels = []
    for market_id, hotel_ids in markets.items():
        for hid in hotel_ids:
            hotels.append(HotelRecord(
                hotel_id=hid, market_id=market_id,
                amenities=rng.uniform(0.0, 1.0, size=d_a),
                geo=rng.uniform(-1.0, 1.0, size=d_g)))
    return HotelCatalog(hotels)


def make_sessions(brand: str, clicks_lists, catalog: HotelCatalog) -> SessionSet:
    sessions = [
        ClickSession(session_id=f"{brand}-s{i}", brand=brand,
                     market_id=catalog.market_of(clicks[0]),
                     clicks=tuple(clicks))
        for i, clicks in enumerate(clicks_lists)
    ]
    return SessionSet(brand=brand, sessions=sessions)


def make_space(brand: str, vectors: dict, dim: int) -> EmbeddingSpace:
    """The space of an id -> vector dict, which may be empty."""
    matrix = np.array(list(vectors.values()), float).reshape(len(vectors), dim)
    return EmbeddingSpace(brand, list(vectors), matrix)


@pytest.fixture
def catalog6() -> HotelCatalog:
    """Two markets of three hotels each."""
    return make_catalog({"m0": ["h0", "h1", "h2"], "m1": ["h3", "h4", "h5"]})


@pytest.fixture
def catalog4() -> HotelCatalog:
    """One market of four hotels (negative-sampling examples)."""
    return make_catalog({"m0": ["A", "B", "C", "D"]})
