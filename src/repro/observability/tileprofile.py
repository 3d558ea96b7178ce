"""Per-tile spatial profiles: opt-in, strictly observational grids.

The paper's Figures 10-14 argue spatially: RBCD cycles and energy
concentrate in the tiles the colliding geometry covers.  A
:class:`TileProfiler` makes that observable for any run — passed in
``observers=`` it accumulates screen-shaped grids of

* ``cycles``   — simulated RBCD work per tile (ZEB insertion + Z-Overlap),
* ``energy_j`` — *dynamic* RBCD joules per tile (static leakage accrues
  with frame time, not per tile; see
  :meth:`~repro.energy.rbcd_power.RBCDEnergyModel.tile_breakdown`),
* ``activity`` — collisionable fragments inserted per tile,
* ``lookups``  — times the tile carried RBCD work at all,

summed over every recorded frame.  The bench harness stores the grids
in each scene's ``tile_profile`` block; its validator checks that the
``cycles`` grid sums to the scene's ``gpu.rbcd.rbcd_fragments_in`` plus
``gpu.rbcd.rbcd_cycles`` counters and the ``energy_j`` grid to its
dynamic RBCD joules, and the exact gate names
every cell that moved, so a changed cycle or joule is localized to the
screen tiles it sits in.

Contract (the :class:`~repro.observability.observer.FrameObserver`
contract every observer obeys, differential-tested by
``tests/integration/test_observer_differential.py``):

* **zero feedback** — recording reads tile results and writes only the
  profiler's own grids, so every detection output is bit-identical with
  the profiler attached or not;
* **deterministic** — each frame's tiles are recorded once the unit
  has absorbed them, and every grid cell is a plain per-tile sum,
  frame by frame.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.observability.observer import FrameObserver

__all__ = ["GRID_NAMES", "TileProfiler"]

# The grids a profiler records, in stored order.  All are per-tile sums
# (floats in the document; ``activity``/``lookups`` happen to be
# integral).
GRID_NAMES = ("cycles", "energy_j", "activity", "lookups")


class TileProfiler(FrameObserver):
    """Accumulates per-tile RBCD activity grids across frames.

    Attach in ``observers=``; the pipeline calls :meth:`begin_frame`
    and :meth:`record_tiles` once per frame.
    Grid dimensions are fixed by the first frame's config — a profiler
    never spans screen configurations — and the energy grid is priced
    by that config's :class:`~repro.energy.rbcd_power.RBCDEnergyModel`.
    """

    def __init__(self) -> None:
        self._tiles_x = 0
        self._tiles_y = 0
        self.frames = 0
        self._grids: dict[str, np.ndarray] = {}
        self._energy_model = None

    @property
    def tiles_x(self) -> int:
        return self._tiles_x

    @property
    def tiles_y(self) -> int:
        return self._tiles_y

    @property
    def tile_count(self) -> int:
        return self._tiles_x * self._tiles_y

    def reset(self) -> None:
        """Drop every grid and the frame count (dimensions too)."""
        self._tiles_x = self._tiles_y = 0
        self.frames = 0
        self._grids = {}
        self._energy_model = None

    def begin_frame(self, config) -> None:
        """Start recording one frame under ``config`` (a ``GPUConfig``)."""
        if self._tiles_x == 0:
            self._tiles_x = config.tiles_x
            self._tiles_y = config.tiles_y
            self._grids = {
                name: np.zeros(self.tile_count) for name in GRID_NAMES
            }
        elif (config.tiles_x, config.tiles_y) != (self._tiles_x, self._tiles_y):
            raise ValueError(
                f"tile profiler recorded {self._tiles_x}x{self._tiles_y} "
                f"tiles but this frame has {config.tiles_x}x"
                f"{config.tiles_y}: reset() between configurations"
            )
        model = self._energy_model
        if model is None or model.gpu_config is not config:
            # Lazy import: repro.energy imports repro.gpu, which imports
            # this package.
            from repro.energy.rbcd_power import RBCDEnergyModel

            self._energy_model = RBCDEnergyModel(config)
        self.frames += 1

    def record_tiles(self, result) -> None:
        """Add a frame's :class:`~repro.rbcd.unit.RBCDTiles` to the grids.

        Purely observational: reads the result, mutates only this
        profiler.
        """
        if self._energy_model is None:
            raise RuntimeError("record_tiles() before begin_frame()")
        tiles = result.tile_index
        grids = self._grids
        grids["cycles"][tiles] += result.insertion_cycles + result.overlap_cycles
        grids["energy_j"][tiles] += (
            self._energy_model.tile_breakdown(result).total_j
        )
        grids["activity"][tiles] += result.insertions
        grids["lookups"][tiles] += 1

    def grid(self, name: str) -> list[float]:
        """One grid, row-major ``tiles_y`` x ``tiles_x`` (flat copy)."""
        if name not in GRID_NAMES:
            raise KeyError(f"unknown grid {name!r} (have {GRID_NAMES})")
        if not self._grids:
            return []
        return self._grids[name].tolist()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view: dimensions, frame count, and every grid."""
        out: dict[str, Any] = {
            "tiles_x": self._tiles_x,
            "tiles_y": self._tiles_y,
            "frames": self.frames,
        }
        for name in GRID_NAMES:
            out[name] = self.grid(name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TileProfiler":
        """Rebuild a profiler from :meth:`as_dict` output (or the bench
        document's ``tile_profile`` block)."""
        profiler = cls()
        profiler._tiles_x = int(data.get("tiles_x", 0))
        profiler._tiles_y = int(data.get("tiles_y", 0))
        profiler.frames = int(data.get("frames", 0))
        if profiler.tile_count:
            profiler._grids = {}
            for name in GRID_NAMES:
                values = np.array(data.get(name, ()), dtype=np.float64)
                if len(values) != profiler.tile_count:
                    raise ValueError(
                        f"grid {name!r} has {len(values)} cells, expected "
                        f"{profiler.tile_count}"
                    )
                profiler._grids[name] = values
        return profiler
