"""RBCD tile execution: gather a frame's tiles, compute them in one pass.

The paper's core observation is that per-tile RBCD work — ZEB sorted
insertion plus the Z-Overlap Test — is independent across the tiles of
a TBR GPU: each tile owns its ZEB, its spare pool, and its slice of the
output buffer.  The simulator computes a frame's tiles together:
:func:`gather_tile_tasks` groups the collisionable fragments by tile
into one :class:`TileBatch`, :class:`TileExecutor` hands the batch to
:func:`repro.rbcd.unit.compute_tile` (one ZEB build and one lock-step
Z-Overlap pass for the whole frame), and the caller absorbs the one
columnar :class:`~repro.rbcd.unit.RBCDTiles` it returns with
:meth:`RBCDUnit.absorb`.

Determinism argument:

1. :func:`compute_tile` is a pure function of ``(config, batch)`` and
   each tile's slice of its result depends on that tile's fragments
   alone — its keys keep it in its own ZEB lists and spare pool.
2. The per-tile columns follow the batch's tile-schedule order, and the
   pair records are regrouped into that order once, so contact-record
   ordering, counters and the per-tile cycle arrays fed to the stall
   model are fixed.  Simulated ``gpu_cycles`` are computed from those
   per-tile timings — never from wall clock.

The module keeps its historical name because the benchmark harness
(``perfbench/layers.py``) patches ``TileExecutor.run`` and
``compute_tile`` here by that path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.config import GPUConfig
from repro.rbcd.unit import RBCDTiles, compute_tile

__all__ = [
    "TileBatch",
    "TileExecutor",
    "gather_tile_tasks",
]


@dataclass(frozen=True, eq=False)
class TileBatch:
    """A frame's collisionable fragments, grouped tile by tile.

    The fragment arrays are flat and tile-major: tile ``k`` (index
    ``tile_index[k]``; ascending, the order the Tile Scheduler visits
    them) owns ``offsets[k]:offsets[k + 1]``, in arrival order.
    ``len()`` is the tile count.
    """

    tile_index: np.ndarray  # (T,) int64
    offsets: np.ndarray     # (T + 1,) int64
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    object_id: np.ndarray
    front: np.ndarray

    def __len__(self) -> int:
        return int(self.tile_index.shape[0])

    @property
    def fragment_count(self) -> int:
        return int(self.x.shape[0])


def gather_tile_tasks(
    frags, config: GPUConfig, tile_index: np.ndarray | None = None
) -> TileBatch:
    """Group a frame's collisionable fragments by tile.

    One stable sort by tile index: tiles come out in tile-schedule
    order (ascending index) with each tile's fragments in their
    original arrival order.  ``tile_index`` is
    ``frags.tile_index(config)`` when the caller already has it.
    """
    if tile_index is None:
        tile_index = frags.tile_index(config)
    coll = np.flatnonzero(frags.object_id >= 0)
    tiles = tile_index[coll]
    order = np.argsort(tiles, kind="stable")
    idx = coll[order]
    sorted_tiles = tiles[order]
    starts = np.flatnonzero(np.diff(sorted_tiles, prepend=-1))
    return TileBatch(
        tile_index=sorted_tiles[starts],
        offsets=np.r_[starts, idx.shape[0]].astype(np.int64),
        x=frags.x[idx],
        y=frags.y[idx],
        z=frags.z[idx],
        object_id=frags.object_id[idx],
        front=frags.front[idx],
    )


class TileExecutor:
    """Runs a frame's RBCD work: one :func:`compute_tile` call per batch.

    :meth:`run` returns one :class:`~repro.rbcd.unit.RBCDTiles` whose
    per-tile columns follow the batch.  The executor holds no state, so
    one instance serves every frame and config — pass the config per
    call.
    """

    def run(self, config: GPUConfig, batch: TileBatch) -> RBCDTiles:
        """Compute every tile of ``batch`` in one pass."""
        return compute_tile(config, batch)
