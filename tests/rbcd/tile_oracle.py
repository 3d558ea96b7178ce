"""Per-tile RBCD oracle: compute one tile at a time, as the hardware does.

:func:`repro.rbcd.unit.compute_tile` builds one ZEB and runs one
lock-step Z-Overlap pass over a whole frame, then splits the result by
tile.  This module keeps the tile loop it replaced: every tile goes
through the kernels on its own, so no spare entry, pair or tally can
leak between tiles.  Tests compare the frame pass with it field by
field, dtypes included.  The kernels are the ones ``compute_tile``
calls, read at call time, so under the ``reference_kernels`` fixture
both sides run the scalar walkers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileBatch
from repro.rbcd import unit
from repro.rbcd.element import max_object_id, quantize_depth
from repro.rbcd.unit import (
    _BITMAP_PIXELS_PER_CYCLE,
    RBCDTileResult,
    _multi_object_lists,
)


def compute_tile_oracle(
    gpu_config: GPUConfig,
    tile_index: int,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    object_id: np.ndarray,
    is_front: np.ndarray,
) -> RBCDTileResult:
    """One tile's ZEB insertion + Z-Overlap Test, computed alone.

    ``x``/``y`` are *global* pixel coordinates in arrival order; the
    tile-local pixel index is derived here.
    """
    config = gpu_config.rbcd
    ts = gpu_config.tile_size
    if x.shape[0] and int(object_id.max()) > max_object_id(config):
        raise ValueError(
            f"object id {int(object_id.max())} exceeds the "
            f"{config.id_bits}-bit ZEB id field"
        )
    local = (y % ts).astype(np.int64) * ts + (x % ts).astype(np.int64)
    codes = quantize_depth(z, config)
    zeb = unit.build_zeb(
        local, codes, object_id, is_front, config, gpu_config.tile_pixels
    )
    overlap = unit.analyze_tile(zeb, config)

    multi_object = _multi_object_lists(zeb)
    analyzed_lists = int(multi_object.sum())
    analyzed_elements = int(zeb.counts[multi_object].sum())

    insertion_cycles = float(zeb.insertions)
    overlap_cycles = 0.0
    if zeb.insertions:
        overlap_cycles = (
            gpu_config.tile_pixels / _BITMAP_PIXELS_PER_CYCLE
            + analyzed_lists
            + analyzed_elements
            + overlap.pair_records
        )
    return RBCDTileResult(
        tile_index=tile_index,
        zeb=zeb,
        overlap=overlap,
        insertion_cycles=insertion_cycles,
        overlap_cycles=overlap_cycles,
        analyzed_lists=analyzed_lists,
        analyzed_elements=analyzed_elements,
    )


def oracle_results(gpu_config: GPUConfig, batch: TileBatch) -> list[RBCDTileResult]:
    """Every tile of ``batch`` through :func:`compute_tile_oracle`."""
    return [
        compute_tile_oracle(
            gpu_config, task.tile_index, task.x, task.y, task.z,
            task.object_id, task.front,
        )
        for task in batch
    ]


def tile_batch(*tiles) -> TileBatch:
    """A :class:`TileBatch` from ``(tile_index, x, y, z, object_id,
    front)`` tuples, one per tile, in ascending tile order."""
    tile_index = np.array([t[0] for t in tiles], dtype=np.int64)
    sizes = [len(t[1]) for t in tiles]
    columns = [
        np.concatenate([np.asarray(t[i]) for t in tiles]).astype(dtype)
        if tiles
        else np.empty(0, dtype=dtype)
        for i, dtype in (
            (1, np.int32), (2, np.int32), (3, np.float64), (4, np.int64),
            (5, bool),
        )
    ]
    return TileBatch(
        tile_index,
        np.r_[0, np.cumsum(sizes, dtype=np.int64)].astype(np.int64),
        *columns,
    )


def mismatches(ours, theirs, path: str = "result") -> list[str]:
    """Paths of every field where two results differ in value, type,
    dtype or shape (recursing through dataclasses and lists)."""
    if type(ours) is not type(theirs):
        return [f"{path}: {type(ours).__name__} != {type(theirs).__name__}"]
    if isinstance(ours, list):
        if len(ours) != len(theirs):
            return [f"{path}: {len(ours)} != {len(theirs)} items"]
        return [
            diff
            for k, (a, b) in enumerate(zip(ours, theirs))
            for diff in mismatches(a, b, f"{path}[{k}]")
        ]
    if dataclasses.is_dataclass(ours):
        return [
            diff
            for f in dataclasses.fields(ours)
            for diff in mismatches(
                getattr(ours, f.name), getattr(theirs, f.name),
                f"{path}.{f.name}",
            )
        ]
    if isinstance(ours, np.ndarray):
        if ours.dtype != theirs.dtype or ours.shape != theirs.shape:
            return [
                f"{path}: {ours.dtype}{ours.shape} != "
                f"{theirs.dtype}{theirs.shape}"
            ]
        return [] if np.array_equal(ours, theirs) else [f"{path}: values"]
    return [] if ours == theirs else [f"{path}: {ours!r} != {theirs!r}"]
