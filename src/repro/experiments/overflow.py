"""ZEB list-length sensitivity (Table 3, Section 5.3).

Sweeps the ZEB list length M over the same rendered fragment streams:
each frame is rasterized once, then the RBCD unit is re-run with each M
to measure the overflow rate and verify which object pairs survive —
the paper's observation is that at M=8 all collisions are still found
despite a small overflow rate, and at M=16 overflows vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.pipeline import GPU
from repro.gpu.raster import FragmentSoup
from repro.rbcd.unit import RBCDUnit
from repro.scenes.benchmarks import Workload


@dataclass
class OverflowSweepResult:
    """Per-M overflow rates and detected pairs for one workload."""

    alias: str
    m_values: tuple[int, ...]
    overflow_rate: dict[int, float]              # M -> rate over the run
    pairs: dict[int, list[set]]                  # M -> per-frame pair sets
    spare_allocations: dict[int, int] = field(default_factory=dict)

    def missed_pairs(self, m: int, reference_m: int) -> list[set]:
        """Per-frame pairs found at ``reference_m`` but missed at ``m``."""
        return [
            ref - got
            for ref, got in zip(self.pairs[reference_m], self.pairs[m])
        ]

    def all_collisions_detected(self, m: int, reference_m: int) -> bool:
        return all(not missed for missed in self.missed_pairs(m, reference_m))


def rerun_unit(frags: FragmentSoup, gpu_config: GPUConfig) -> RBCDUnit:
    """Feed a frame's collisionable fragments through a fresh RBCD unit."""
    unit = RBCDUnit(gpu_config)
    unit.absorb(
        TileExecutor().run(gpu_config, gather_tile_tasks(frags, gpu_config))
    )
    return unit


def overflow_sweep(
    workload: Workload,
    gpu_config: GPUConfig | None = None,
    m_values: tuple[int, ...] = (4, 8, 16),
    frames: int | None = None,
    spare_entries: int = 0,
) -> OverflowSweepResult:
    """Table 3 for one workload: overflow rate and pairs per M."""
    gpu_config = gpu_config if gpu_config is not None else GPUConfig()
    gpu = GPU(gpu_config, rbcd_enabled=True)

    insertions = {m: 0 for m in m_values}
    overflows = {m: 0 for m in m_values}
    spares = {m: 0 for m in m_values}
    pairs: dict[int, list[set]] = {m: [] for m in m_values}

    for t in workload.times(frames):
        frame = workload.scene.frame_at(float(t), gpu_config)
        result = gpu.render_frame(frame, keep_fragments=True)
        for m in m_values:
            cfg_m = gpu_config.with_rbcd(
                list_length=m,
                ff_stack_entries=max(m, gpu_config.rbcd.ff_stack_entries),
                spare_entries_per_tile=spare_entries,
            )
            unit = rerun_unit(result.fragments, cfg_m)
            insertions[m] += unit.tiles.zeb.insertions
            overflows[m] += unit.tiles.zeb.overflow_events
            spares[m] += unit.tiles.zeb.spare_allocations
            pairs[m].append({(p.id_a, p.id_b) for p in unit.report.pairs})

    rates = {
        m: (overflows[m] / insertions[m] if insertions[m] else 0.0)
        for m in m_values
    }
    return OverflowSweepResult(
        alias=workload.alias,
        m_values=tuple(m_values),
        overflow_rate=rates,
        pairs=pairs,
        spare_allocations=spares,
    )
