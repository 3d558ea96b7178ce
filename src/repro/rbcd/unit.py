"""The RBCD unit: ZEB buffers + Z-Overlap Test + output buffer.

Composes the pieces of Sections 3.4-3.5 into the block the Raster
Pipeline talks to.  In hardware the unit is fed one tile's
collisionable fragments at a time (the Rasterizer's output order),
fills that tile's ZEB, then runs the Z-Overlap Test over it.  The
simulator computes all of a frame's tiles in one pass
(:func:`compute_tile`) and hands back one columnar result; the
pipeline timing model uses its per-tile cycle counts together with the
configured number of ZEBs to decide when the Tile Scheduler stalls
(Section 3.5, last paragraph).

Cycle-model assumptions (the paper gives the structures, not the
per-operation latencies):

* Sorted insertion accepts one fragment per cycle (the 3-step
  read/compare/write is pipelined).
* The Z-Overlap Test scans a per-tile occupancy bitmap at 32 pixels per
  cycle, then spends 1 cycle per analyzed list plus 1 cycle per element
  read plus 1 cycle per pair record written.
* Lists whose elements all carry the same object id are skipped by the
  Z-Overlap Test: they cannot produce a pair (an object does not
  collide with itself), and the insertion hardware can mark them with
  one extra "multi-object" bit per pixel (set when an inserted id
  differs from the list's existing ids).  The skip changes no results;
  it only removes cycles for the interior pixels of each object's
  silhouette — the overwhelmingly common case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.gpu.config import GPUConfig, RBCDConfig
from repro.rbcd.element import dequantize_depth, max_object_id, quantize_depth
from repro.rbcd.overlap import OverlapResult, analyze_tile
from repro.rbcd.pairs import CollisionReport
from repro.rbcd.zeb import ZEBTile, build_zeb

if TYPE_CHECKING:
    from repro.gpu.parallel import TileBatch

_BITMAP_PIXELS_PER_CYCLE = 32


def _multi_object_lists(zeb: ZEBTile) -> np.ndarray:
    """(P,) mask of lists containing more than one distinct object id.

    An OR over the L list columns, each compared with the list's first
    id where it holds a valid element: on a frame's lists (thousands
    of rows, a few columns) about 4x faster than an ``any`` over the
    (P, L) matrix.
    """
    if zeb.non_empty_lists == 0:
        return np.zeros(0, dtype=bool)
    ids = zeb.object_ids
    first = ids[:, 0]
    multi = np.zeros(ids.shape[0], dtype=bool)
    differs = np.empty(ids.shape[0], dtype=bool)
    for col in range(1, ids.shape[1]):
        np.not_equal(ids[:, col], first, out=differs)
        differs &= zeb.counts > col
        multi |= differs
    return multi


@dataclass
class RBCDTiles:
    """One frame's RBCD output: frame-wide lists and pairs, per-tile columns.

    ``zeb`` and ``overlap`` cover the whole frame.  The ZEB's lists are
    keyed ``tile * tile_pixels + local pixel`` (so tile-major) and its
    counters are frame totals.  The overlap's pair columns are in
    output-buffer order: tile by tile in tile-schedule order, each
    tile's pairs in its own (element step, list row, FF-Stack slot)
    order; ``pair_row`` indexes the frame ZEB's lists.  ``x``/``y`` are
    each pair's global witness pixel.

    The per-tile arrays are aligned with ``tile_index`` (the batch's
    tiles, ascending); tile ``k`` wrote pairs
    ``pair_offsets[k]:pair_offsets[k + 1]``.  Everything is plain numpy
    arrays and ints: :func:`compute_tile` builds one per frame and the
    owning :class:`RBCDUnit` absorbs it.
    """

    zeb: ZEBTile
    overlap: OverlapResult
    x: np.ndarray                  # (K,) witness pixel of each pair
    y: np.ndarray
    tile_index: np.ndarray         # (T,)
    insertions: np.ndarray         # (T,) fragments received
    overflow_events: np.ndarray    # (T,)
    spare_allocations: np.ndarray  # (T,)
    analyzed_lists: np.ndarray     # (T,) multi-object lists walked
    analyzed_elements: np.ndarray  # (T,) elements of those lists
    tallies: np.ndarray            # (T, 4) columns as OverlapResult.list_tallies
    insertion_cycles: np.ndarray   # (T,) float64
    overlap_cycles: np.ndarray     # (T,) float64
    pair_offsets: np.ndarray       # (T + 1,)

    def __len__(self) -> int:
        return int(self.tile_index.shape[0])


def compute_tile(gpu_config: GPUConfig, batch: TileBatch) -> RBCDTiles:
    """Pure RBCD computation of a frame's tiles: ZEB insertion + Z-Overlap.

    ``batch`` is a :class:`~repro.gpu.parallel.TileBatch` (global pixel
    coordinates, tile-major, arrival order within each tile).  Every
    fragment is keyed by ``(tile, local pixel)``, mirroring how the
    Rasterizer addresses its tile's ZEB, so one ZEB build and one
    lock-step Z-Overlap pass cover the frame while each tile keeps its
    own lists and spare pool.  Each tile's slice of the result is
    identical to what computing that tile alone gives.
    """
    config = gpu_config.rbcd
    _check_object_ids(batch, config)
    sizes = np.diff(batch.offsets)
    keys = zeb_keys(
        gpu_config, batch.x, batch.y, np.repeat(batch.tile_index, sizes)
    )
    zeb = build_zeb(
        keys, quantize_depth(batch.z, config), batch.object_id, batch.front,
        config, gpu_config.tile_pixels,
    )
    overlap = analyze_tile(zeb, config)
    return _tile_columns(gpu_config, batch.tile_index, sizes, zeb, overlap)


def zeb_keys(
    gpu_config: GPUConfig, x: np.ndarray, y: np.ndarray, tile: np.ndarray
) -> np.ndarray:
    """ZEB key of each fragment: ``tile * tile_pixels + local pixel``,
    from global pixel coordinates and the fragment's tile index."""
    ts = gpu_config.tile_size
    return (
        np.asarray(tile, dtype=np.int64) * gpu_config.tile_pixels
        + (np.asarray(y) % ts).astype(np.int64) * ts
        + (np.asarray(x) % ts).astype(np.int64)
    )


def _check_object_ids(batch: TileBatch, config: RBCDConfig) -> None:
    """Reject ids wider than the ZEB id field, naming the largest id of
    the first offending tile in schedule order."""
    too_wide = batch.object_id > max_object_id(config)
    if not too_wide.any():
        return
    k = int(np.searchsorted(batch.offsets, too_wide.argmax(), side="right")) - 1
    worst = int(batch.object_id[batch.offsets[k]:batch.offsets[k + 1]].max())
    raise ValueError(
        f"object id {worst} exceeds the {config.id_bits}-bit ZEB id field"
    )


def _by_tile(slot: np.ndarray, num_tiles: int) -> tuple[np.ndarray, np.ndarray]:
    """Group items by tile slot: ``(stable order, items per tile)``."""
    return np.argsort(slot, kind="stable"), np.bincount(slot, minlength=num_tiles)


def _tile_columns(
    gpu_config: GPUConfig,
    tiles: np.ndarray,
    sizes: np.ndarray,
    zeb: ZEBTile,
    overlap: OverlapResult,
) -> RBCDTiles:
    """Per-tile columns of a frame-wide ZEB and traversal, with the
    pairs regrouped into output-buffer order."""
    tp = gpu_config.tile_pixels
    ts = gpu_config.tile_size
    m = gpu_config.rbcd.list_length
    num_tiles = tiles.shape[0]
    counts = zeb.counts

    # Lists are keyed tile-major: tile k owns rows row_lo[k]:row_hi[k].
    row_tile = zeb.pixel_index // tp
    row_lo = np.searchsorted(row_tile, tiles, side="left")
    row_hi = np.searchsorted(row_tile, tiles, side="right")
    row_slot = np.repeat(np.arange(num_tiles), row_hi - row_lo)

    def tile_sums(values: np.ndarray) -> np.ndarray:
        zero = np.zeros((1,) + values.shape[1:], dtype=values.dtype)
        running = np.concatenate([zero, np.cumsum(values, axis=0)])
        return running[row_hi] - running[row_lo]

    # The multi-object filter: lists whose entries all belong to one
    # object are skipped by the overlap hardware (they cannot yield a
    # pair).  Functionally a no-op; counted for the cycle model.
    multi = _multi_object_lists(zeb)
    analyzed_lists = tile_sums(multi.astype(np.int64))
    analyzed_elements = tile_sums(np.where(multi, counts, 0))

    # Pairs come out in frame lock-step order (step, frame row, slot);
    # regrouping them by tile restores each tile's (step, row, slot).
    order, pair_records = _by_tile(row_slot[overlap.pair_row], num_tiles)
    overlap = replace(overlap, **{
        name: getattr(overlap, name)[order]
        for name in (
            "pair_row", "pair_id_a", "pair_id_b", "pair_z_front",
            "pair_z_back", "pair_case", "pair_stack_depth",
        )
    })
    key = zeb.pixel_index[overlap.pair_row]
    tile, local = np.divmod(key, tp)
    tile_y, tile_x = np.divmod(tile, gpu_config.tiles_x)
    overlap_cycles = (
        tp / _BITMAP_PIXELS_PER_CYCLE
        + analyzed_lists
        + analyzed_elements
        + pair_records
    )
    return RBCDTiles(
        zeb=zeb,
        overlap=overlap,
        x=tile_x * ts + local % ts,
        y=tile_y * ts + local // ts,
        tile_index=tiles,
        insertions=sizes,
        # An arrival leaves its list's length unchanged exactly when it
        # is an overflow event, and a spare lengthens a list past M by one.
        overflow_events=sizes - tile_sums(counts),
        spare_allocations=tile_sums(np.maximum(counts - m, 0)),
        analyzed_lists=analyzed_lists,
        analyzed_elements=analyzed_elements,
        tallies=tile_sums(overlap.list_tallies),
        insertion_cycles=sizes.astype(np.float64),
        overlap_cycles=np.where(sizes > 0, overlap_cycles, 0.0),
        pair_offsets=np.concatenate([[0], np.cumsum(pair_records)]),
    )


class RBCDUnit:
    """One RBCD unit attached to a GPU's raster pipeline.

    :meth:`absorb` takes one frame's :class:`RBCDTiles`; ``tiles`` then
    holds it and ``report`` is the frame's :class:`CollisionReport`.
    """

    def __init__(self, gpu_config: GPUConfig) -> None:
        self.gpu_config = gpu_config
        self.config: RBCDConfig = gpu_config.rbcd
        self.tiles: RBCDTiles | None = None
        self.report = CollisionReport()

    def absorb(self, result: RBCDTiles) -> None:
        """Take one frame's result and read its output buffer back.

        The report's records keep the result's pair order (tile-schedule
        order), and its depths are the pairs' z codes dequantized.
        """
        self.tiles = result
        overlap = result.overlap
        self.report = CollisionReport(
            overlap.pair_id_a,
            overlap.pair_id_b,
            result.x,
            result.y,
            dequantize_depth(overlap.pair_z_front, self.config),
            dequantize_depth(overlap.pair_z_back, self.config),
        )

    @property
    def overflow_rate(self) -> float:
        """Fraction of insertion attempts finding a full list (Table 3)."""
        if self.tiles is None or self.tiles.zeb.insertions == 0:
            return 0.0
        return self.tiles.zeb.overflow_events / self.tiles.zeb.insertions

    def wants_cpu_fallback(self) -> bool:
        """Section 5.3 fallback: punt the frame to software CD when the
        overflow rate exceeds the configured threshold."""
        return self.overflow_rate > self.config.cpu_fallback_overflow_rate
