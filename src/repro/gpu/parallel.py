"""Per-tile RBCD execution: gather tile tasks, run them in order.

The paper's core observation is that per-tile RBCD work — ZEB sorted
insertion plus the Z-Overlap Test — is independent across the tiles of
a TBR GPU: each tile owns its ZEB, its spare pool, and its slice of the
output buffer.  The simulator runs that work in one serial, in-process
loop: :func:`gather_tile_tasks` groups a frame's collisionable
fragments by tile, :class:`TileExecutor` computes each task with
:func:`repro.rbcd.unit.compute_tile`, and the caller absorbs the
results tile by tile with :meth:`RBCDUnit.absorb`.

Determinism argument:

1. :func:`compute_tile` is a pure function of ``(config, tile
   fragments)`` — no shared state.
2. Results come back in task order, which is the tile-schedule order
   produced by :func:`gather_tile_tasks`.
3. Absorbing the results (and summing their stats) runs over that
   order, so contact-record ordering, counters and the per-tile cycle
   arrays fed to the stall model are fixed.  Simulated ``gpu_cycles``
   are computed from those per-tile timings — never from wall clock.

The module keeps its historical name because the benchmark harness
(``perfbench/layers.py``) patches ``TileExecutor.run`` and
``compute_tile`` here by that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.gpu.config import GPUConfig
from repro.rbcd.unit import RBCDTileResult, compute_tile

__all__ = [
    "TileTask",
    "TileExecutor",
    "gather_tile_tasks",
]


@dataclass(frozen=True)
class TileTask:
    """One tile's collisionable fragments, in arrival order.

    Coordinates are global pixel coordinates, exactly what
    :func:`repro.rbcd.unit.compute_tile` expects.
    """

    tile_index: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    object_id: np.ndarray
    front: np.ndarray

    @property
    def fragment_count(self) -> int:
        return int(self.x.shape[0])


def gather_tile_tasks(frags, config: GPUConfig) -> list[TileTask]:
    """Group a frame's collisionable fragments into per-tile tasks.

    Tasks come back in tile-schedule order (ascending tile index, the
    order the Tile Scheduler visits them) with each tile's fragments in
    their original arrival order.
    """
    coll = np.flatnonzero(frags.object_id >= 0)
    if coll.shape[0] == 0:
        return []
    tiles = frags.tile_index(config)[coll]
    order = np.lexsort((coll, tiles))  # per tile, arrival order
    sorted_idx = coll[order]
    sorted_tiles = tiles[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_tiles[1:] != sorted_tiles[:-1]])
    boundaries = np.r_[boundaries, sorted_tiles.shape[0]]
    tasks: list[TileTask] = []
    for b in range(boundaries.shape[0] - 1):
        lo, hi = boundaries[b], boundaries[b + 1]
        idx = sorted_idx[lo:hi]
        tasks.append(
            TileTask(
                tile_index=int(sorted_tiles[lo]),
                x=frags.x[idx],
                y=frags.y[idx],
                z=frags.z[idx],
                object_id=frags.object_id[idx],
                front=frags.front[idx],
            )
        )
    return tasks


class TileExecutor:
    """Runs per-tile RBCD work over a frame's tile tasks, one at a time.

    :meth:`run` returns results in task order (tile-schedule order).
    The executor holds no state, so one instance serves every frame and
    config — pass the config per call.
    """

    def run(
        self, config: GPUConfig, tasks: Sequence[TileTask]
    ) -> list[RBCDTileResult]:
        """Compute all tasks; results ordered exactly like ``tasks``."""
        return [
            compute_tile(config, t.tile_index, t.x, t.y, t.z, t.object_id, t.front)
            for t in tasks
        ]

