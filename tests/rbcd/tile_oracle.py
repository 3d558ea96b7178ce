"""Per-tile RBCD oracle: compute and absorb one tile at a time.

:func:`repro.rbcd.unit.compute_tile` builds one ZEB and runs one
lock-step Z-Overlap pass over a whole frame, and returns one columnar
:class:`~repro.rbcd.unit.RBCDTiles`; :meth:`RBCDUnit.absorb` reads it
once.  This module keeps the loops that replaced: every tile goes
through the kernels on its own (:func:`compute_tile_oracle`), so no
spare entry, pair or tally can leak between tiles, and the tiles are
absorbed one after another with running sums and per-record appends
(:func:`absorb_oracle`).  :func:`tile_tasks` cuts a
:class:`~repro.gpu.parallel.TileBatch` into per-tile :class:`TileTask`
views for the oracle's loop.  :func:`tile_slices` cuts a frame result
into the same per-tile shape, so tests compare the two field by field,
dtypes included.  The kernels are the ones ``compute_tile`` calls,
read at call time, so under the ``reference_kernels`` fixture both
sides run the scalar walkers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileBatch
from repro.rbcd import unit
from repro.rbcd.element import dequantize_depth, max_object_id, quantize_depth
from repro.rbcd.overlap import OverlapResult
from repro.rbcd.pairs import CollisionPair, ContactPoint
from repro.rbcd.unit import (
    _BITMAP_PIXELS_PER_CYCLE,
    RBCDTiles,
    RBCDUnit,
    _multi_object_lists,
)
from repro.rbcd.zeb import ZEBTile

PAIR_COLUMNS = (
    "pair_row", "pair_id_a", "pair_id_b", "pair_z_front", "pair_z_back",
    "pair_case", "pair_stack_depth",
)


@dataclasses.dataclass(frozen=True)
class TileTask:
    """One tile's collisionable fragments, in arrival order.

    Coordinates are global pixel coordinates.
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


def tile_tasks(batch: TileBatch) -> list[TileTask]:
    """``batch`` as one :class:`TileTask` view per tile, in its order."""
    bounds = batch.offsets.tolist()
    return [
        TileTask(
            tile_index=tile,
            x=batch.x[lo:hi],
            y=batch.y[lo:hi],
            z=batch.z[lo:hi],
            object_id=batch.object_id[lo:hi],
            front=batch.front[lo:hi],
        )
        for tile, lo, hi in zip(
            batch.tile_index.tolist(), bounds[:-1], bounds[1:]
        )
    ]


@dataclasses.dataclass
class TileResult:
    """Everything the unit produced for one tile."""

    tile_index: int
    zeb: ZEBTile
    overlap: OverlapResult
    insertion_cycles: float
    overlap_cycles: float
    analyzed_lists: int = 0
    analyzed_elements: int = 0


def compute_tile_oracle(
    gpu_config: GPUConfig,
    tile_index: int,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    object_id: np.ndarray,
    is_front: np.ndarray,
) -> TileResult:
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
    return TileResult(
        tile_index=tile_index,
        zeb=zeb,
        overlap=overlap,
        insertion_cycles=insertion_cycles,
        overlap_cycles=overlap_cycles,
        analyzed_lists=analyzed_lists,
        analyzed_elements=analyzed_elements,
    )


def oracle_results(gpu_config: GPUConfig, batch: TileBatch) -> list[TileResult]:
    """Every tile of ``batch`` through :func:`compute_tile_oracle`."""
    return [
        compute_tile_oracle(
            gpu_config, task.tile_index, task.x, task.y, task.z,
            task.object_id, task.front,
        )
        for task in tile_tasks(batch)
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


def tile_slices(gpu_config: GPUConfig, result: RBCDTiles) -> list[TileResult]:
    """Cut a frame result into per-tile results: each tile's own lists
    (local pixel keys, padded only to its longest list), its pairs
    (rows local to its lists) and its per-tile counters."""
    tp = gpu_config.tile_pixels
    zeb, overlap = result.zeb, result.overlap
    row_tile = zeb.pixel_index // tp
    row_lo = np.searchsorted(row_tile, result.tile_index, side="left")
    row_hi = np.searchsorted(row_tile, result.tile_index, side="right")
    offsets = result.pair_offsets.tolist()
    tiles = []
    for k, tile in enumerate(result.tile_index.tolist()):
        lo, hi = int(row_lo[k]), int(row_hi[k])
        plo, phi = offsets[k], offsets[k + 1]
        counts = zeb.counts[lo:hi]
        width = int(counts.max()) if hi > lo else 0
        pairs = {name: getattr(overlap, name)[plo:phi] for name in PAIR_COLUMNS}
        pairs["pair_row"] = pairs["pair_row"] - lo
        tallies = result.tallies[k].tolist()
        tiles.append(TileResult(
            tile_index=tile,
            zeb=ZEBTile(
                pixel_index=zeb.pixel_index[lo:hi] - tile * tp,
                counts=counts,
                z_codes=zeb.z_codes[lo:hi, :width],
                object_ids=zeb.object_ids[lo:hi, :width],
                is_front=zeb.is_front[lo:hi, :width],
                insertions=int(result.insertions[k]),
                overflow_events=int(result.overflow_events[k]),
                spare_allocations=int(result.spare_allocations[k]),
            ),
            overlap=OverlapResult(
                **pairs,
                elements_read=int(counts.sum()),
                pair_records=phi - plo,
                stack_overflows=tallies[0],
                unmatched_backfaces=tallies[1],
                disjoint_closures=tallies[2],
                self_pairs_filtered=tallies[3],
                list_tallies=overlap.list_tallies[lo:hi],
            ),
            insertion_cycles=float(result.insertion_cycles[k]),
            overlap_cycles=float(result.overlap_cycles[k]),
            analyzed_lists=int(result.analyzed_lists[k]),
            analyzed_elements=int(result.analyzed_elements[k]),
        ))
    return tiles


@dataclasses.dataclass
class Absorbed:
    """What a unit holds after a frame: counters, the report's record
    columns in output-buffer order, and its per-pair contact view."""

    insertions: int
    overflow_events: int
    spare_allocations: int
    lists_analyzed: int
    elements_read: int
    stack_overflows: int
    unmatched_backfaces: int
    pair_records_written: int
    columns: dict
    pairs: list
    contacts: list


def absorbed(unit: RBCDUnit) -> Absorbed:
    """The :class:`Absorbed` view of a unit that took one frame."""
    tiles, report = unit.tiles, unit.report
    return Absorbed(
        insertions=tiles.zeb.insertions,
        overflow_events=tiles.zeb.overflow_events,
        spare_allocations=tiles.zeb.spare_allocations,
        lists_analyzed=int(tiles.analyzed_lists.sum()),
        elements_read=int(tiles.analyzed_elements.sum()),
        stack_overflows=tiles.overlap.stack_overflows,
        unmatched_backfaces=tiles.overlap.unmatched_backfaces,
        pair_records_written=report.pair_records_written,
        columns={
            f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)
        },
        pairs=list(report.contacts),
        contacts=list(report.contacts.values()),
    )


def absorb_oracle(gpu_config: GPUConfig, tiles: list[TileResult]) -> Absorbed:
    """Absorb per-tile results one by one, in the order given: running
    sums of the counters, and each pair record converted on its own and
    appended to its pair's contact list."""
    config = gpu_config.rbcd
    ts = gpu_config.tile_size
    sums = dict.fromkeys(
        ("insertions", "overflow_events", "spare_allocations",
         "lists_analyzed", "elements_read", "stack_overflows",
         "unmatched_backfaces"),
        0,
    )
    columns = {name: [] for name in ("id_a", "id_b", "x", "y", "z_front", "z_back")}
    contacts: dict[CollisionPair, list[ContactPoint]] = {}
    for result in tiles:
        overlap = result.overlap
        sums["insertions"] += result.zeb.insertions
        sums["overflow_events"] += result.zeb.overflow_events
        sums["spare_allocations"] += result.zeb.spare_allocations
        sums["lists_analyzed"] += result.analyzed_lists
        sums["elements_read"] += result.analyzed_elements
        sums["stack_overflows"] += overlap.stack_overflows
        sums["unmatched_backfaces"] += overlap.unmatched_backfaces
        tile_x0 = (result.tile_index % gpu_config.tiles_x) * ts
        tile_y0 = (result.tile_index // gpu_config.tiles_x) * ts
        local = result.zeb.pixel_index[overlap.pair_row]
        px = tile_x0 + (local % ts)
        py = tile_y0 + (local // ts)
        zf = dequantize_depth(overlap.pair_z_front, config)
        zb = dequantize_depth(overlap.pair_z_back, config)
        for name, column in zip(
            columns, (overlap.pair_id_a, overlap.pair_id_b, px, py, zf, zb)
        ):
            columns[name].append(column)
        for k in range(overlap.pair_records):
            pair = CollisionPair.make(
                int(overlap.pair_id_a[k]), int(overlap.pair_id_b[k])
            )
            contacts.setdefault(pair, []).append(
                ContactPoint(int(px[k]), int(py[k]), float(zf[k]), float(zb[k]))
            )
    return Absorbed(
        **sums,
        pair_records_written=sum(r.overlap.pair_records for r in tiles),
        columns={
            name: np.concatenate(parts) if parts else np.empty(
                0, np.float64 if name.startswith("z_") else np.int64
            )
            for name, parts in columns.items()
        },
        pairs=list(contacts),
        contacts=list(contacts.values()),
    )


def frame_mismatches(gpu_config: GPUConfig, batch: TileBatch) -> list[str]:
    """Every field where the frame pass — each tile's slice of
    :func:`compute_tile`, and the unit that absorbed it — differs from
    the per-tile oracle."""
    result = unit.compute_tile(gpu_config, batch)
    expected = oracle_results(gpu_config, batch)
    frame_unit = RBCDUnit(gpu_config)
    frame_unit.absorb(result)
    return mismatches(tile_slices(gpu_config, result), expected) + mismatches(
        absorbed(frame_unit), absorb_oracle(gpu_config, expected), "absorbed"
    )


def mismatches(ours, theirs, path: str = "result") -> list[str]:
    """Paths of every field where two results differ in value, type,
    dtype or shape (recursing through dataclasses, dicts and lists)."""
    if type(ours) is not type(theirs):
        return [f"{path}: {type(ours).__name__} != {type(theirs).__name__}"]
    if isinstance(ours, dict):
        if list(ours) != list(theirs):
            return [f"{path}: keys {list(ours)} != {list(theirs)}"]
        return [
            diff
            for key in ours
            for diff in mismatches(ours[key], theirs[key], f"{path}.{key}")
        ]
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
