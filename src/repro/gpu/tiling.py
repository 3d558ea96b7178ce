"""Tiling engine: the Polygon List Builder.

Bins every assembled triangle to the 16x16-pixel tiles its screen
bounding box covers, writing one polygon-list record per
(primitive, tile) pair through the Tile Cache.  The Raster Pipeline's
Tile Fetcher later reads those records back — both directions are
simulated so the Figure 11 activity factors (tile-cache loads/stores and
their misses) come out of a real access stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.assembly import TriangleSoup
from repro.gpu.caches import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.kernels import triangle_bounds
from repro.gpu.stats import GPUStats


@dataclass
class TileBinning:
    """Per-tile primitive lists plus the flat (prim, tile) pair arrays."""

    # Sorted by (tile, submission order): index arrays into the soup.
    pair_tile: np.ndarray       # (P,) tile index of each pair
    pair_prim: np.ndarray       # (P,) triangle index of each pair
    tile_offsets: np.ndarray    # (tiles+1,) CSR offsets into the pair arrays
    record_addresses: np.ndarray  # (P,) synthetic byte address of each record

    def prims_of_tile(self, tile: int) -> np.ndarray:
        lo, hi = self.tile_offsets[tile], self.tile_offsets[tile + 1]
        return self.pair_prim[lo:hi]

    @property
    def pair_count(self) -> int:
        return int(self.pair_prim.shape[0])


def bin_triangles(
    soup: TriangleSoup,
    config: GPUConfig,
    stats: GPUStats,
    tile_cache: Cache | None = None,
) -> TileBinning:
    """Bin a frame's triangle soup into per-tile polygon lists.

    Binning is bounding-box conservative (like real tilers): a triangle
    is listed in every tile its screen bbox touches, even if no covered
    pixel falls there; the rasterizer later pays setup for such empty
    visits, which is part of the deferred-culling overhead story.
    """
    ts = config.tile_size
    tiles_x, tiles_y = config.tiles_x, config.tiles_y

    if soup.count == 0:
        empty = np.empty(0, dtype=np.int64)
        offsets = np.zeros(config.tile_count + 1, dtype=np.int64)
        return TileBinning(empty, empty, offsets, empty)

    # Pixel-center sampling means a bbox touching a tile by less than
    # half a pixel can't produce fragments (the rasterizer walks only
    # the centres near its box), but hardware bins by raw bbox; we
    # follow the hardware.
    min_x, max_x, min_y, max_y = triangle_bounds(soup.xy)
    tx0 = np.clip(np.floor(min_x / ts), 0, tiles_x - 1).astype(np.int64)
    tx1 = np.clip(np.floor(max_x / ts), 0, tiles_x - 1).astype(np.int64)
    ty0 = np.clip(np.floor(min_y / ts), 0, tiles_y - 1).astype(np.int64)
    ty1 = np.clip(np.floor(max_y / ts), 0, tiles_y - 1).astype(np.int64)

    spans_x = tx1 - tx0 + 1
    spans_y = ty1 - ty0 + 1
    counts = spans_x * spans_y
    total = int(counts.sum())

    pair_prim = np.repeat(np.arange(soup.count, dtype=np.int64), counts)
    # Enumerate each prim's covered tiles row-major within its tile bbox.
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    sx = np.repeat(spans_x, counts)
    lx = local % sx
    ly = local // sx
    pair_tile = (np.repeat(ty0, counts) + ly) * tiles_x + np.repeat(tx0, counts) + lx

    # Polygon-list records are appended in submission order; the record
    # address stream is what the tile cache sees on the store side.
    record_bytes = config.tile_list_record_bytes
    record_addresses = np.arange(total, dtype=np.int64) * record_bytes

    if tile_cache is None:
        tile_cache = Cache(config.tile_cache)
    store_misses = tile_cache.access_many(record_addresses)

    stats.prim_tile_pairs += total
    stats.tile_cache_stores += total
    stats.tile_cache_store_misses += store_misses

    # CSR by tile, stable in submission order.
    order = np.argsort(pair_tile, kind="stable")
    pair_tile_sorted = pair_tile[order]
    pair_prim_sorted = pair_prim[order]
    record_sorted = record_addresses[order]
    tile_counts = np.bincount(pair_tile_sorted, minlength=config.tile_count)
    offsets = np.zeros(config.tile_count + 1, dtype=np.int64)
    np.cumsum(tile_counts, out=offsets[1:])

    return TileBinning(pair_tile_sorted, pair_prim_sorted, offsets, record_sorted)


def fetch_tile_lists(
    binning: TileBinning,
    config: GPUConfig,
    stats: GPUStats,
    tile_cache: Cache,
) -> np.ndarray:
    """Simulate the Tile Fetcher reading every tile's polygon list.

    Returns per-tile load-miss counts (tiles,) int64 for the timing
    model.  Tiles are visited in raster order (tile index order); each
    record read is one tile-cache load.  The records already sit in
    that order, so the whole frame is one tile-cache call, and its
    per-access miss flags are summed per tile.
    """
    loads = binning.record_addresses
    miss = np.empty(loads.shape, dtype=bool)
    load_misses = tile_cache.access_many(loads, out=miss)
    stats.tile_cache_loads += loads.size
    stats.tile_cache_load_misses += load_misses
    stats.prims_rasterized += loads.size
    return np.bincount(
        binning.pair_tile[miss], minlength=config.tile_count
    ).astype(np.int64, copy=False)
