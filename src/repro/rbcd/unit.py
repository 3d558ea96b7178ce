"""The RBCD unit: ZEB buffers + Z-Overlap Test + output buffer.

Composes the pieces of Sections 3.4-3.5 into the block the Raster
Pipeline talks to.  In hardware the unit is fed one tile's
collisionable fragments at a time (the Rasterizer's output order),
fills that tile's ZEB, then runs the Z-Overlap Test over it.  The
simulator computes all of a frame's tiles in one pass
(:func:`compute_tile`) and hands back per-tile results; the pipeline
timing model uses their cycle counts together with the configured
number of ZEBs to decide when the Tile Scheduler stalls (Section 3.5,
last paragraph).

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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.gpu import kernels as _kernels
from repro.gpu.config import GPUConfig, RBCDConfig
from repro.observability.counters import CounterRegistry
from repro.rbcd.element import dequantize_depth, max_object_id, quantize_depth
from repro.rbcd.overlap import OverlapResult
from repro.rbcd.pairs import CollisionReport, ContactPoint
from repro.rbcd.zeb import ZEBTile

if TYPE_CHECKING:
    from repro.gpu.parallel import TileBatch

_BITMAP_PIXELS_PER_CYCLE = 32


def _multi_object_lists(zeb: ZEBTile) -> np.ndarray:
    """(P,) mask of lists containing more than one distinct object id."""
    if zeb.non_empty_lists == 0:
        return np.zeros(0, dtype=bool)
    cols = np.arange(zeb.z_codes.shape[1])
    valid = cols[None, :] < zeb.counts[:, None]
    first = zeb.object_ids[:, 0]
    differs = (zeb.object_ids != first[:, None]) & valid
    return differs.any(axis=1)


@dataclass
class RBCDTileResult:
    """Everything the unit produced for one tile.

    Instances are self-contained (plain ints and numpy arrays):
    :func:`compute_tile` builds them and the owning :class:`RBCDUnit`
    absorbs them afterwards, in tile-schedule order.
    """

    tile_index: int
    zeb: ZEBTile
    overlap: OverlapResult
    insertion_cycles: float
    overlap_cycles: float
    analyzed_lists: int = 0
    analyzed_elements: int = 0


def compute_tile(gpu_config: GPUConfig, batch: TileBatch) -> list[RBCDTileResult]:
    """Pure RBCD computation of a frame's tiles: ZEB insertion + Z-Overlap.

    ``batch`` is a :class:`~repro.gpu.parallel.TileBatch` (global pixel
    coordinates, tile-major, arrival order within each tile).  Every
    fragment is keyed by ``(tile, local pixel)``, mirroring how the
    Rasterizer addresses its tile's ZEB, so one ZEB build and one
    lock-step Z-Overlap pass cover the frame while each tile keeps its
    own lists and spare pool.  The frame result is then split into one
    :class:`RBCDTileResult` per tile, in batch (tile-schedule) order,
    each identical to what computing that tile alone gives.  The
    kernels run on the backend named by ``gpu_config.kernel_backend``
    (all backends are bit-identical; see :mod:`repro.gpu.kernels`).
    """
    if len(batch) == 0:
        return []
    config = gpu_config.rbcd
    _check_object_ids(batch, config)
    sizes = np.diff(batch.offsets)
    keys = zeb_keys(
        gpu_config, batch.x, batch.y, np.repeat(batch.tile_index, sizes)
    )
    backend = _kernels.get_backend(gpu_config.kernel_backend)
    zeb = backend.zeb_insert(
        keys, quantize_depth(batch.z, config), batch.object_id, batch.front,
        config, gpu_config.tile_pixels,
    )
    overlap = backend.zoverlap_traverse(zeb, config)
    return _split_by_tile(gpu_config, batch.tile_index, sizes, zeb, overlap)


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


def _split_by_tile(
    gpu_config: GPUConfig,
    tiles: np.ndarray,
    sizes: np.ndarray,
    zeb: ZEBTile,
    overlap: OverlapResult,
) -> list[RBCDTileResult]:
    """Cut a frame-wide ZEB and traversal into per-tile results."""
    tp = gpu_config.tile_pixels
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

    # Each tile's lists are padded only to that tile's longest list.
    width = np.zeros(num_tiles, dtype=np.int64)
    np.maximum.at(width, row_slot, counts)
    elements = tile_sums(counts)
    # The multi-object filter: lists whose entries all belong to one
    # object are skipped by the overlap hardware (they cannot yield a
    # pair).  Functionally a no-op; counted for the cycle model.
    multi = _multi_object_lists(zeb)
    analyzed_lists = tile_sums(multi.astype(np.int64))
    analyzed_elements = tile_sums(np.where(multi, counts, 0))

    # Pairs come out in frame lock-step order (step, frame row, slot);
    # regrouping them by tile restores each tile's (step, row, slot).
    pair_slot = row_slot[overlap.pair_row]
    order, pair_records = _by_tile(pair_slot, num_tiles)
    pair_hi = np.cumsum(pair_records)
    columns = [overlap.pair_row[order] - row_lo[pair_slot[order]]] + [
        column[order]
        for column in (
            overlap.pair_id_a,
            overlap.pair_id_b,
            overlap.pair_z_front,
            overlap.pair_z_back,
            overlap.pair_case,
            overlap.pair_stack_depth,
        )
    ]
    overlap_cycles = (
        tp / _BITMAP_PIXELS_PER_CYCLE
        + analyzed_lists
        + analyzed_elements
        + pair_records
    )

    local_pixel = zeb.pixel_index - row_tile * tp
    per_tile = np.column_stack([
        sizes, row_lo, row_hi, width, pair_hi - pair_records, pair_hi,
        elements,
        # An arrival leaves its list's length unchanged exactly when it
        # is an overflow event, and a spare lengthens a list past M by one.
        sizes - elements,
        tile_sums(np.maximum(counts - m, 0)),
        analyzed_lists,
        analyzed_elements,
        tile_sums(overlap.list_tallies),
    ]).tolist()
    results = []
    for tile, cycles, (
        size, lo, hi, w, plo, phi, read, overflows, spares, lists, analyzed,
        *tallies,
    ) in zip(tiles.tolist(), overlap_cycles.tolist(), per_tile):
        tile_zeb = ZEBTile(
            pixel_index=local_pixel[lo:hi],
            counts=counts[lo:hi],
            z_codes=zeb.z_codes[lo:hi, :w],
            object_ids=zeb.object_ids[lo:hi, :w],
            is_front=zeb.is_front[lo:hi, :w],
            insertions=size,
            overflow_events=overflows,
            spare_allocations=spares,
        )
        tile_overlap = OverlapResult(
            *(column[plo:phi] for column in columns),
            elements_read=read,
            pair_records=phi - plo,
            stack_overflows=tallies[0],
            unmatched_backfaces=tallies[1],
            disjoint_closures=tallies[2],
            self_pairs_filtered=tallies[3],
            list_tallies=overlap.list_tallies[lo:hi],
        )
        results.append(RBCDTileResult(
            tile_index=tile,
            zeb=tile_zeb,
            overlap=tile_overlap,
            insertion_cycles=float(size),
            overlap_cycles=cycles if size else 0.0,
            analyzed_lists=lists,
            analyzed_elements=analyzed,
        ))
    return results


class RBCDUnit:
    """One RBCD unit attached to a GPU's raster pipeline.

    The unit accumulates a per-frame :class:`CollisionReport`; call
    :meth:`reset` between frames (the pipeline does this).
    """

    def __init__(self, gpu_config: GPUConfig) -> None:
        self.gpu_config = gpu_config
        self.config: RBCDConfig = gpu_config.rbcd
        self.report = CollisionReport()
        self.insertions = 0
        self.overflow_events = 0
        self.spare_allocations = 0
        self.lists_analyzed = 0
        self.elements_read = 0
        self.stack_overflows = 0
        self.unmatched_backfaces = 0

    def reset(self) -> None:
        """Clear per-frame state (new frame, fresh report)."""
        self.report = CollisionReport()
        self.insertions = 0
        self.overflow_events = 0
        self.spare_allocations = 0
        self.lists_analyzed = 0
        self.elements_read = 0
        self.stack_overflows = 0
        self.unmatched_backfaces = 0

    def absorb(self, result: RBCDTileResult) -> None:
        """Fold one tile's result into the per-frame counters and report.

        The pipeline absorbs results in tile-schedule order, which fixes
        the report's contact-record order; every counter is a plain sum.
        """
        self.insertions += result.zeb.insertions
        self.overflow_events += result.zeb.overflow_events
        self.spare_allocations += result.zeb.spare_allocations
        self.lists_analyzed += result.analyzed_lists
        self.elements_read += result.analyzed_elements
        self.stack_overflows += result.overlap.stack_overflows
        self.unmatched_backfaces += result.overlap.unmatched_backfaces
        self._record_pairs(result.tile_index, result.zeb, result.overlap)

    def _record_pairs(
        self, tile_index: int, zeb: ZEBTile, overlap: OverlapResult
    ) -> None:
        if overlap.pair_records == 0:
            return
        ts = self.gpu_config.tile_size
        tiles_x = self.gpu_config.tiles_x
        tile_x0 = (tile_index % tiles_x) * ts
        tile_y0 = (tile_index // tiles_x) * ts
        local = zeb.pixel_index[overlap.pair_row]
        px = tile_x0 + (local % ts)
        py = tile_y0 + (local // ts)
        zf = dequantize_depth(overlap.pair_z_front, self.config)
        zb = dequantize_depth(overlap.pair_z_back, self.config)
        for k in range(overlap.pair_records):
            self.report.add(
                int(overlap.pair_id_a[k]),
                int(overlap.pair_id_b[k]),
                ContactPoint(int(px[k]), int(py[k]), float(zf[k]), float(zb[k])),
            )

    def counters(self) -> CounterRegistry:
        """Named counter view of the unit's per-frame tallies."""
        registry = CounterRegistry()
        for name, value in (
            ("rbcd.zeb_insertions", self.insertions),
            ("rbcd.zeb_overflow_events", self.overflow_events),
            ("rbcd.zeb_spare_allocations", self.spare_allocations),
            ("rbcd.overlap_lists_analyzed", self.lists_analyzed),
            ("rbcd.overlap_elements_read", self.elements_read),
            ("rbcd.ff_stack_overflows", self.stack_overflows),
            ("rbcd.unmatched_backfaces", self.unmatched_backfaces),
            ("rbcd.pair_records_written", self.report.pair_records_written),
        ):
            registry.counter(name)
            registry.set(name, value)
        return registry

    @property
    def overflow_rate(self) -> float:
        """Fraction of insertion attempts finding a full list (Table 3)."""
        if self.insertions == 0:
            return 0.0
        return self.overflow_events / self.insertions

    def wants_cpu_fallback(self) -> bool:
        """Section 5.3 fallback: punt the frame to software CD when the
        overflow rate exceeds the configured threshold."""
        return self.overflow_rate > self.config.cpu_fallback_overflow_rate
