"""Rasterizer: edge-function scan conversion with the top-left rule.

Produces the frame's *fragment soup*: flat arrays of pixel coordinates,
interpolated depth, object id, facing, and the tagged-to-be-culled bit,
in primitive-submission order (the arrival order at Early-Z and at the
RBCD unit's insertion-sort input).

Depth is the NDC z remapped to [0, 1]; it is interpolated linearly in
screen space, which is exact for the post-projection depth a real
Z-buffer stores.

The scan-conversion loop itself is a kernel
(:func:`repro.gpu.kernels.rasterize_triangles`): this module assembles
the resulting fragment soup and keeps the stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.assembly import TriangleSoup
from repro.gpu.config import GPUConfig
from repro.gpu.kernels import rasterize_triangles
from repro.gpu.stats import GPUStats


# The dtype contract for every FragmentSoup field: both construction
# paths (empty frame and rasterized frame) coerce to these, so a frame
# with zero fragments concatenates/pickles identically to a populated
# one whatever dtypes the upstream TriangleSoup carried.
FRAGMENT_DTYPES: dict[str, np.dtype] = {
    "x": np.dtype(np.int32),
    "y": np.dtype(np.int32),
    "z": np.dtype(np.float64),
    "object_id": np.dtype(np.int64),
    "front": np.dtype(np.bool_),
    "tagged": np.dtype(np.bool_),
    "draw_index": np.dtype(np.int64),
    "tri_index": np.dtype(np.int64),
}


@dataclass
class FragmentSoup:
    """All fragments of a frame, in generation (arrival) order."""

    x: np.ndarray          # (N,) int32 pixel column
    y: np.ndarray          # (N,) int32 pixel row
    z: np.ndarray          # (N,) float64 depth in [0, 1]
    object_id: np.ndarray  # (N,) int64; -1 for non-collisionable
    front: np.ndarray      # (N,) bool
    tagged: np.ndarray     # (N,) bool (tagged-to-be-culled)
    draw_index: np.ndarray  # (N,) int64
    tri_index: np.ndarray  # (N,) int64 index into the triangle soup

    @property
    def count(self) -> int:
        return int(self.x.shape[0])

    def tile_index(self, config: GPUConfig) -> np.ndarray:
        """(N,) tile index of each fragment."""
        ts = config.tile_size
        return (self.y // ts).astype(np.int64) * config.tiles_x + (
            self.x // ts
        ).astype(np.int64)

    @staticmethod
    def empty() -> "FragmentSoup":
        return FragmentSoup(**{
            name: np.empty(0, dtype=dtype)
            for name, dtype in FRAGMENT_DTYPES.items()
        })


def rasterize(
    soup: TriangleSoup, config: GPUConfig, stats: GPUStats
) -> FragmentSoup:
    """Scan-convert the whole triangle soup in submission order."""
    if soup.count == 0:
        return FragmentSoup.empty()

    x, y, z, tri = rasterize_triangles(
        soup.xy, soup.z, config.screen_width, config.screen_height
    )
    if x.shape[0] == 0:
        return FragmentSoup.empty()

    d = FRAGMENT_DTYPES
    frags = FragmentSoup(
        x=x.astype(d["x"], copy=False),
        y=y.astype(d["y"], copy=False),
        z=np.clip(z, 0.0, 1.0).astype(d["z"], copy=False),
        object_id=soup.object_id[tri].astype(d["object_id"], copy=False),
        front=soup.front[tri].astype(d["front"], copy=False),
        tagged=soup.tagged[tri].astype(d["tagged"], copy=False),
        draw_index=soup.draw_index[tri].astype(d["draw_index"], copy=False),
        tri_index=tri.astype(d["tri_index"], copy=False),
    )
    stats.fragments_produced += frags.count
    stats.fragments_tagged_culled += int(frags.tagged.sum())
    return frags
