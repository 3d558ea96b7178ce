"""Differential tests: the frame-batched Tile Fetcher against the per-tile oracle.

``tests/gpu/fetch_oracle.py`` keeps the loop that sent each tile's
polygon-list records to the tile cache as its own call.  The production
``fetch_tile_lists`` sends the whole frame as one call and sums the
per-access miss flags per tile.  Both run after ``bin_triangles`` on the
same cache geometry, so the fetch sees a cache warmed by the bin stores,
and they must agree exactly: the per-tile miss array (values and dtype),
the fetch counters and the resident lines of every set.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.assembly import TriangleSoup
from repro.gpu.caches import Cache
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.stats import GPUStats
from repro.gpu.tiling import bin_triangles, fetch_tile_lists
from tests.gpu.fetch_oracle import fetch_tile_lists as oracle_fetch
from tests.gpu.test_tiling import soup_of

SCREENS = ((16, 16), (64, 48), (96, 64))
TILE_CACHES = (
    GPUConfig().tile_cache,               # the stock 16 KB, 2-way cache
    CacheConfig("tile", 512, 64, 2, 1),   # 4 sets: bin stores evict
    CacheConfig("tile", 256, 64, 1, 1),   # direct-mapped
    CacheConfig("tile", 1024, 64, 4, 1),  # the MRU-walk branch
)
COUNTERS = (
    "prim_tile_pairs",
    "tile_cache_stores",
    "tile_cache_store_misses",
    "tile_cache_loads",
    "tile_cache_load_misses",
    "prims_rasterized",
)


def config_for(screen: tuple[int, int], tile_cache: CacheConfig) -> GPUConfig:
    return replace(GPUConfig().with_screen(*screen), tile_cache=tile_cache)


def fetch_both(config: GPUConfig, soup: TriangleSoup, warm: list[int]) -> np.ndarray:
    """Bin then fetch with each fetcher; assert they agree, return misses."""
    runs = []
    for fetch in (oracle_fetch, fetch_tile_lists):
        stats = GPUStats()
        cache = Cache(config.tile_cache)
        cache.access_many(np.array(warm, dtype=np.int64))
        binning = bin_triangles(soup, config, stats, cache)
        runs.append((fetch(binning, config, stats, cache), stats, cache))
    (want, want_stats, want_cache), (got, got_stats, got_cache) = runs
    assert got.dtype == want.dtype == np.int64
    assert got.shape == (config.tile_count,)
    np.testing.assert_array_equal(got, want)
    for counter in COUNTERS:
        assert getattr(got_stats, counter) == getattr(want_stats, counter), counter
    assert got_cache.resident_lines() == want_cache.resident_lines()
    assert (got_cache.accesses, got_cache.misses) == (
        want_cache.accesses, want_cache.misses
    )
    return got


def tile_triangle(config: GPUConfig, tile: int) -> list[list[float]]:
    """A small triangle inside one tile, so it is binned there alone."""
    ts = config.tile_size
    x = (tile % config.tiles_x) * ts + 2.0
    y = (tile // config.tiles_x) * ts + 2.0
    return [[x, y], [x + 8.0, y], [x, y + 8.0]]


@st.composite
def frames(draw):
    screen = draw(st.sampled_from(SCREENS), label="screen")
    config = config_for(screen, draw(st.sampled_from(TILE_CACHES), label="cache"))
    w, h = screen
    coord = st.tuples(st.floats(-8, w + 8), st.floats(-8, h + 8))
    # Large triangles spread over many tiles; small ones fill chosen
    # tiles and leave empty tiles between them.
    tris = draw(st.lists(st.lists(coord, min_size=3, max_size=3), max_size=12))
    filled = draw(
        st.lists(st.integers(0, config.tile_count - 1), max_size=3 * config.tile_count)
    )
    tris = [[list(p) for p in tri] for tri in tris]
    tris += [tile_triangle(config, tile) for tile in filled]
    order = draw(st.permutations(range(len(tris))))
    soup = soup_of([tris[i] for i in order]) if tris else TriangleSoup.empty()
    warm = draw(st.lists(st.integers(0, 1 << 14), max_size=40), label="warm")
    return config, soup, warm


@settings(max_examples=60, deadline=None)
@given(frames())
def test_batched_fetch_matches_per_tile_oracle(frame):
    fetch_both(*frame)


@pytest.mark.parametrize("tile_cache", TILE_CACHES, ids=lambda c: f"{c.size_bytes}B-{c.ways}way")
def test_empty_soup(tile_cache):
    misses = fetch_both(config_for((64, 48), tile_cache), TriangleSoup.empty(), [])
    assert not misses.any()


def test_one_tile_screen():
    config = config_for((16, 16), TILE_CACHES[1])
    soup = soup_of([tile_triangle(config, 0)] * 20)
    misses = fetch_both(config, soup, [])
    assert misses.shape == (1,)
    # 20 records over 8 resident lines: the fetch re-misses the evicted ones.
    assert misses[0] > 0


def test_empty_tiles_between_full_ones():
    config = config_for((96, 64), TILE_CACHES[1])
    full = [0, 5, 6, 23]
    soup = soup_of([tile_triangle(config, t) for t in full * 4])
    misses = fetch_both(config, soup, [])
    assert set(np.flatnonzero(misses)) <= set(full)
    assert misses[full].sum() > 0


def test_fetch_after_bin_stores_on_stock_cache():
    # The stock cache holds every record the bin stores just wrote.
    config = config_for((96, 64), TILE_CACHES[0])
    soup = soup_of([tile_triangle(config, t) for t in range(config.tile_count)])
    assert not fetch_both(config, soup, []).any()
