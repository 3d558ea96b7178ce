"""Run a workload under every system of the paper's evaluation.

For each frame of a benchmark the harness runs:

* the **baseline GPU** (no RBCD hardware, conventional face culling) —
  the denominator of the overhead figures;
* the **RBCD GPU** (deferred culling, ZEB + Z-Overlap unit) — rendered
  once; the tile schedule is then re-solved for each requested ZEB
  count (the functional results are identical, only stalls change);
* **CPU broad CD** (per-frame AABB recompute + all-pairs test);
* **CPU broad+narrow CD** (the above + GJK per surviving pair).

Times and energies are aggregated over the frame sequence, ready for
the Equation 1-4 metrics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cpu.model import CPUConfig, CPUCost, CPUModel
from repro.energy.gpu_power import GPUEnergyModel, GPUEnergyParams
from repro.energy.rbcd_power import RBCDEnergyModel
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU, FrameResult, _tile_schedule
from repro.gpu.stats import GPUStats
from repro.physics.counters import OpCounter
from repro.scenes.benchmarks import Workload


@dataclass
class SystemCosts:
    """Aggregate time and energy of one system over a run."""

    seconds: float = 0.0
    energy_j: float = 0.0

    def __add__(self, other: "SystemCosts") -> "SystemCosts":
        return SystemCosts(self.seconds + other.seconds, self.energy_j + other.energy_j)

    def __radd__(self, other):
        if other == 0:
            return self
        return self.__add__(other)


@dataclass
class WorkloadRun:
    """All systems' results for one benchmark run."""

    alias: str
    name: str
    frames: int
    gpu_config: GPUConfig
    baseline_stats: GPUStats
    baseline: SystemCosts
    rbcd_stats: dict[int, GPUStats]       # zeb_count -> accumulated stats
    rbcd: dict[int, SystemCosts]          # zeb_count -> GPU(+unit) cost
    cpu_broad: CPUCost
    cpu_narrow: CPUCost
    rbcd_pairs: list[set] = field(default_factory=list)       # per frame
    cpu_broad_pairs: list[set] = field(default_factory=list)
    cpu_narrow_pairs: list[set] = field(default_factory=list)
    overflow_rates: dict[int, float] = field(default_factory=dict)  # M -> rate

    def rbcd_extra_seconds(self, zeb_count: int) -> float:
        return self.rbcd[zeb_count].seconds - self.baseline.seconds

    def rbcd_extra_energy(self, zeb_count: int) -> float:
        return self.rbcd[zeb_count].energy_j - self.baseline.energy_j


def _reschedule_stats(
    result: FrameResult, zeb_count: int, config: GPUConfig
) -> GPUStats:
    """Stats of the same functional frame under a different ZEB count."""
    timing = result.tile_timing
    if timing is None:
        raise ValueError("render_frame must be called with keep_tile_timing=True")
    stats = dataclasses.replace(result.stats)
    new = _tile_schedule(
        timing.raster_cycles, timing.fragment_cycles, timing.overlap_cycles, zeb_count
    )
    stats.raster_pipeline_cycles = new.total_cycles
    stats.raster_stall_cycles = new.stall_cycles
    stats.fragment_idle_cycles = new.total_cycles - float(new.fragment_cycles.sum())
    stats.gpu_cycles = stats.geometry_cycles + new.total_cycles
    return stats


def run_workload(
    workload: Workload,
    gpu_config: GPUConfig | None = None,
    cpu_config: CPUConfig | None = None,
    energy_params: GPUEnergyParams | None = None,
    frames: int | None = None,
    zeb_counts: tuple[int, ...] = (1, 2),
) -> WorkloadRun:
    """Simulate one benchmark under every system."""
    gpu_config = gpu_config if gpu_config is not None else GPUConfig()
    cpu_model = CPUModel(cpu_config)
    gpu_energy = GPUEnergyModel(gpu_config, energy_params)

    baseline_gpu = GPU(gpu_config, rbcd_enabled=False)
    rbcd_gpu = GPU(gpu_config, rbcd_enabled=True)
    world = workload.scene.collision_world()

    baseline_total = GPUStats()
    rbcd_totals: dict[int, GPUStats] = {k: GPUStats() for k in zeb_counts}
    cpu_broad_ops = OpCounter()
    cpu_narrow_ops = OpCounter()
    rbcd_pairs: list[set] = []
    broad_pairs: list[set] = []
    narrow_pairs: list[set] = []

    for t in workload.times(frames):
        frame = workload.scene.frame_at(float(t), gpu_config)

        base = baseline_gpu.render_frame(frame)
        baseline_total += base.stats

        rb = rbcd_gpu.render_frame(frame, keep_tile_timing=True)
        rbcd_pairs.append({(p.id_a, p.id_b) for p in rb.collisions.pairs})
        for k in zeb_counts:
            rbcd_totals[k] += _reschedule_stats(rb, k, gpu_config)

        workload.scene.sync_world(world, float(t))
        broad = world.detect("broad")
        cpu_broad_ops += broad.ops
        broad_pairs.append(set(broad.pairs))
        narrow = world.detect("broad+narrow")
        cpu_narrow_ops += narrow.ops
        narrow_pairs.append(set(narrow.pairs))

    seconds = gpu_config.cycles_to_seconds
    baseline_cost = SystemCosts(
        seconds=seconds(baseline_total.gpu_cycles),
        energy_j=gpu_energy.total_j(baseline_total),
    )
    rbcd_costs: dict[int, SystemCosts] = {}
    for k in zeb_counts:
        stats_k = rbcd_totals[k]
        unit_energy = RBCDEnergyModel(
            gpu_config.with_rbcd(zeb_count=k),
            gpu_static_power_w=gpu_energy.params.static_power_w,
        ).total_j(stats_k)
        rbcd_costs[k] = SystemCosts(
            seconds=seconds(stats_k.gpu_cycles),
            energy_j=gpu_energy.total_j(stats_k) + unit_energy,
        )

    any_k = zeb_counts[0]
    return WorkloadRun(
        alias=workload.alias,
        name=workload.name,
        frames=len(workload.times(frames)),
        gpu_config=gpu_config,
        baseline_stats=baseline_total,
        baseline=baseline_cost,
        rbcd_stats=rbcd_totals,
        rbcd=rbcd_costs,
        cpu_broad=cpu_model.price(cpu_broad_ops),
        cpu_narrow=cpu_model.price(cpu_narrow_ops),
        rbcd_pairs=rbcd_pairs,
        cpu_broad_pairs=broad_pairs,
        cpu_narrow_pairs=narrow_pairs,
        overflow_rates={
            gpu_config.rbcd.list_length: rbcd_totals[any_k].zeb_overflow_rate
        },
    )
