"""Tiling engine (polygon list builder) tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.assembly import TriangleSoup
from repro.gpu.caches import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats
from repro.gpu.tiling import bin_triangles, fetch_tile_lists

CFG = GPUConfig().with_screen(64, 48)  # 4 x 3 tiles of 16px


def soup_of(xy_list):
    n = len(xy_list)
    return TriangleSoup(
        xy=np.array(xy_list, dtype=np.float64),
        z=np.full((n, 3), 0.5),
        object_id=np.full(n, -1, dtype=np.int64),
        front=np.ones(n, dtype=bool),
        tagged=np.zeros(n, dtype=bool),
        draw_index=np.zeros(n, dtype=np.int64),
    )


class TestBinning:
    def test_single_tile_triangle(self):
        soup = soup_of([[[2.0, 2.0], [10.0, 2.0], [2.0, 10.0]]])
        stats = GPUStats()
        binning = bin_triangles(soup, CFG, stats)
        assert binning.pair_count == 1
        assert binning.prims_of_tile(0).tolist() == [0]
        assert stats.prim_tile_pairs == 1
        assert stats.tile_cache_stores == 1

    def test_spanning_triangle_binned_to_all_touched_tiles(self):
        # Bbox spans tiles (0,0) through (1,1): 4 tiles.
        soup = soup_of([[[10.0, 10.0], [20.0, 10.0], [10.0, 20.0]]])
        binning = bin_triangles(soup, CFG, GPUStats())
        assert binning.pair_count == 4
        tiles = sorted(binning.pair_tile.tolist())
        assert tiles == [0, 1, 4, 5]

    def test_bbox_binning_is_conservative(self):
        # A sliver whose bbox covers tile (1, 0) without covering any of
        # its pixels still gets binned there (hardware behaviour).
        soup = soup_of([[[2.0, 2.0], [30.0, 2.5], [2.0, 3.0]]])
        binning = bin_triangles(soup, CFG, GPUStats())
        assert 1 in binning.pair_tile.tolist()

    def test_offscreen_coordinates_clamped(self):
        soup = soup_of([[[-50.0, -50.0], [10.0, -50.0], [-50.0, 10.0]]])
        binning = bin_triangles(soup, CFG, GPUStats())
        assert (binning.pair_tile >= 0).all()

    def test_submission_order_within_tile(self):
        tri = [[2.0, 2.0], [10.0, 2.0], [2.0, 10.0]]
        soup = soup_of([tri, tri, tri])
        binning = bin_triangles(soup, CFG, GPUStats())
        assert binning.prims_of_tile(0).tolist() == [0, 1, 2]

    def test_csr_offsets_consistent(self):
        rng = np.random.RandomState(0)
        tris = []
        for _ in range(40):
            x, y = rng.uniform(0, 60), rng.uniform(0, 44)
            tris.append([[x, y], [x + 5, y], [x, y + 5]])
        soup = soup_of(tris)
        binning = bin_triangles(soup, CFG, GPUStats())
        assert binning.tile_offsets[0] == 0
        assert binning.tile_offsets[-1] == binning.pair_count
        assert (np.diff(binning.tile_offsets) >= 0).all()
        # Every pair appears in exactly one tile slice.
        total = sum(
            binning.prims_of_tile(t).size for t in range(CFG.tile_count)
        )
        assert total == binning.pair_count

    def test_empty_soup(self):
        binning = bin_triangles(TriangleSoup.empty(), CFG, GPUStats())
        assert binning.pair_count == 0
        assert binning.tile_offsets.shape == (CFG.tile_count + 1,)


def bin_reference(xy, config):
    """Binning one triangle at a time: its bbox from ``min``/``max`` over
    the vertices, then its tiles row-major.  Returns ``(tile, prim,
    record address)`` per pair, in submission order."""
    ts = config.tile_size
    pairs = []
    for prim, tri in enumerate(xy.tolist()):
        xs, ys = [v[0] for v in tri], [v[1] for v in tri]
        tx0, tx1, ty0, ty1 = (
            min(max(math.floor(v / ts), 0), tiles - 1)
            for v, tiles in (
                (min(xs), config.tiles_x), (max(xs), config.tiles_x),
                (min(ys), config.tiles_y), (max(ys), config.tiles_y),
            )
        )
        for ty in range(ty0, ty1 + 1):
            for tx in range(tx0, tx1 + 1):
                pairs.append((ty * config.tiles_x + tx, prim))
    return [
        (tile, prim, k * config.tile_list_record_bytes)
        for k, (tile, prim) in enumerate(pairs)
    ]


# Tile boundaries (multiples of 16) and values an ulp either side,
# off-screen and far-off coordinates, and free ones.
tile_edge = st.integers(-3, 6).map(lambda k: 16.0 * k)
bin_coord = (
    tile_edge
    | tile_edge.flatmap(lambda v: st.sampled_from(
        [np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    ))
    | st.floats(-1e6, 1e6)
    | st.floats(-40.0, 110.0)
)


@st.composite
def bin_triangle(draw):
    tri = [[draw(bin_coord), draw(bin_coord)] for _ in range(3)]
    # Zero-width boxes: every vertex on one vertical or horizontal line.
    axis = draw(st.sampled_from([None, 0, 1]))
    if axis is not None:
        for vertex in tri[1:]:
            vertex[axis] = tri[0][axis]
    return tri


class TestBinningDifferential:
    """``bin_triangles`` against a per-triangle loop, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        tris=st.lists(bin_triangle(), min_size=1, max_size=30),
        screen=st.sampled_from([(64, 48), (72, 40)]),
    )
    def test_matches_per_triangle_loop(self, tris, screen):
        config = GPUConfig().with_screen(*screen)
        soup = soup_of(tris)
        stats = GPUStats()
        cache = Cache(config.tile_cache)
        binning = bin_triangles(soup, config, stats, cache)

        pairs = bin_reference(soup.xy, config)
        reference_cache = Cache(config.tile_cache)
        misses = sum(
            reference_cache.access_many(np.array([address]))
            for _, _, address in pairs
        )
        pairs.sort(key=lambda pair: pair[0])  # stable: submission order
        tile, prim, address = (
            np.array(column, dtype=np.int64) for column in zip(*pairs)
        )
        offsets = np.searchsorted(tile, np.arange(config.tile_count + 1))

        np.testing.assert_array_equal(binning.pair_tile, tile)
        np.testing.assert_array_equal(binning.pair_prim, prim)
        np.testing.assert_array_equal(binning.tile_offsets, offsets)
        np.testing.assert_array_equal(binning.record_addresses, address)
        assert (
            stats.prim_tile_pairs, stats.tile_cache_stores,
            stats.tile_cache_store_misses,
        ) == (len(pairs), len(pairs), misses)
        assert (cache.accesses, cache.misses) == (
            reference_cache.accesses, reference_cache.misses
        )
        assert cache.resident_lines() == reference_cache.resident_lines()


class TestTileFetch:
    def test_loads_counted_per_pair(self):
        tri = [[2.0, 2.0], [30.0, 2.0], [2.0, 30.0]]  # spans 4 tiles
        soup = soup_of([tri])
        stats = GPUStats()
        cache = Cache(CFG.tile_cache)
        binning = bin_triangles(soup, CFG, stats, cache)
        fetch_tile_lists(binning, CFG, stats, cache)
        assert stats.tile_cache_loads == 4
        assert stats.prims_rasterized == 4

    def test_fetch_after_store_mostly_hits(self):
        tri = [[2.0, 2.0], [10.0, 2.0], [2.0, 10.0]]
        soup = soup_of([tri] * 8)
        stats = GPUStats()
        cache = Cache(CFG.tile_cache)
        binning = bin_triangles(soup, CFG, stats, cache)
        misses = fetch_tile_lists(binning, CFG, stats, cache)
        # Records were just written; the working set fits the cache.
        assert stats.tile_cache_load_misses == 0
        assert misses.sum() == 0

    def test_per_tile_miss_array_shape(self):
        soup = soup_of([[[2.0, 2.0], [10.0, 2.0], [2.0, 10.0]]])
        stats = GPUStats()
        cache = Cache(CFG.tile_cache)
        binning = bin_triangles(soup, CFG, stats, cache)
        misses = fetch_tile_lists(binning, CFG, stats, cache)
        assert misses.shape == (CFG.tile_count,)
