"""The RBCD unit: ZEB buffers + Z-Overlap Test + output buffer.

Composes the pieces of Sections 3.4-3.5 into the block the Raster
Pipeline talks to.  The unit is fed one tile's collisionable fragments
at a time (the Rasterizer's output order), fills a ZEB, then runs the
Z-Overlap Test over it; the pipeline timing model uses the returned
per-tile cycle counts together with the configured number of ZEBs to
decide when the Tile Scheduler stalls (Section 3.5, last paragraph).

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

from dataclasses import dataclass, field

import numpy as np

from repro.gpu import kernels as _kernels
from repro.gpu.config import GPUConfig, RBCDConfig
from repro.observability.counters import CounterRegistry
from repro.rbcd.element import dequantize_depth, max_object_id, quantize_depth
from repro.rbcd.overlap import OverlapResult
from repro.rbcd.pairs import CollisionReport, ContactPoint
from repro.rbcd.zeb import ZEBTile

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


def compute_tile(
    gpu_config: GPUConfig,
    tile_index: int,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    object_id: np.ndarray,
    is_front: np.ndarray,
) -> RBCDTileResult:
    """Pure per-tile RBCD computation: ZEB insertion + Z-Overlap Test.

    It touches no shared state (each tile has its own ZEB and its own
    spare pool); :meth:`RBCDUnit.absorb` folds the result into a unit.
    ``x``/``y`` are *global* pixel coordinates in arrival order; the
    tile-local pixel index is derived here, mirroring how the
    Rasterizer addresses the ZEB.  The insertion and traversal loops
    run on the kernel backend named by ``gpu_config.kernel_backend``
    (all backends are bit-identical; see :mod:`repro.gpu.kernels`).
    """
    config = gpu_config.rbcd
    ts = gpu_config.tile_size
    if x.shape[0] and int(object_id.max()) > max_object_id(config):
        raise ValueError(
            f"object id {int(object_id.max())} exceeds the "
            f"{config.id_bits}-bit ZEB id field"
        )
    backend = _kernels.get_backend(gpu_config.kernel_backend)
    local = (y % ts).astype(np.int64) * ts + (x % ts).astype(np.int64)
    codes = quantize_depth(z, config)
    zeb = backend.zeb_insert(
        local, codes, object_id, is_front, config, gpu_config.tile_pixels
    )
    overlap = backend.zoverlap_traverse(zeb, config)

    # The multi-object filter: lists whose entries all belong to one
    # object are skipped by the overlap hardware (they cannot yield a
    # pair).  Functionally a no-op; counted for the cycle model.
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
