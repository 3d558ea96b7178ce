"""Reference Tile Fetcher: one tile-cache call per tile.

The per-tile loop ``repro.gpu.tiling.fetch_tile_lists`` replaced, kept
as a test oracle.  It visits tiles in raster order and sends each
non-empty tile's polygon-list records to the tile cache as one call.
``tests/gpu/test_fetch_oracle.py`` holds the frame-batched fetch to it.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.caches import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats
from repro.gpu.tiling import TileBinning


def fetch_tile_lists(
    binning: TileBinning,
    config: GPUConfig,
    stats: GPUStats,
    tile_cache: Cache,
) -> np.ndarray:
    """Per-tile load-miss counts (tiles,), one cache call per tile."""
    misses = np.zeros(config.tile_count, dtype=np.int64)
    for tile in range(config.tile_count):
        lo, hi = binning.tile_offsets[tile], binning.tile_offsets[tile + 1]
        addresses = binning.record_addresses[lo:hi]
        if addresses.size == 0:
            continue
        m = tile_cache.access_many(addresses)
        misses[tile] = m
        stats.tile_cache_loads += addresses.size
        stats.tile_cache_load_misses += m
        stats.prims_rasterized += addresses.size
    return misses
