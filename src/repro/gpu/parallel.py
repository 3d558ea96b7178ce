"""Per-tile RBCD execution: gather tile tasks, run them, replay cached ones.

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
from typing import Iterable, Sequence

import numpy as np

from repro.gpu.config import GPUConfig
from repro.rbcd.unit import RBCDTileResult, compute_tile

__all__ = [
    "TileTask",
    "TileExecutor",
    "gather_tile_tasks",
    "run_with_tile_cache",
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


def run_with_tile_cache(
    executor: TileExecutor,
    config: GPUConfig,
    tasks: Sequence[TileTask],
    cache,
    tile_keys: dict[int, bytes],
) -> Iterable[tuple[RBCDTileResult, bool]]:
    """Run tile tasks through ``executor`` behind a signature cache.

    Yields ``(result, replayed)`` in tile-schedule order: the full task
    list is first planned against the cache (lookups happen serially,
    in task order, so the hit/miss pattern is deterministic), then only
    the misses are computed by the executor, and the replayed hits are
    interleaved back in place.  Because replayed results are the very
    objects a previous frame computed, the merged stream is
    bit-identical to a cache-off run; only the host work (and the
    modelled savings the cache accounts) changes.

    ``cache`` is a :class:`~repro.gpu.tilecache.TileResultCache` (duck
    typed to avoid a tiling→parallel import knot); ``tile_keys`` maps
    tile index → canonical signature key, from
    :func:`~repro.gpu.tilecache.frame_tile_keys`.  Every task's tile
    must have a key: a tile with collisionable fragments necessarily
    has collisionable primitives binned to it.
    """
    plan: list[tuple[TileTask, RBCDTileResult | None]] = []
    miss_tasks: list[TileTask] = []
    for task in tasks:
        key = tile_keys.get(task.tile_index)
        if key is None:
            raise KeyError(
                f"tile {task.tile_index} has RBCD work but no signature "
                f"key: the signature layer and the binning disagree"
            )
        cached = cache.lookup(task.tile_index, key)
        plan.append((task, cached))
        if cached is None:
            miss_tasks.append(task)
    miss_results = iter(executor.run(config, miss_tasks))
    for task, cached in plan:
        if cached is not None:
            yield cached, True
        else:
            result = next(miss_results)
            cache.store(task.tile_index, tile_keys[task.tile_index], result)
            yield result, False

