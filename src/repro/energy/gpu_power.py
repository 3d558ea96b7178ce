"""GPU energy from per-frame activity factors.

``E_frame = sum(activity_k * E_k) + P_static * t_frame``

Per-event energies are 32 nm magnitudes chosen so that (a) fragment
processing dominates, as the paper's Section 3.3 notes ("the most
consuming part of the graphics hardware pipeline"), and (b) a typical
WVGA frame lands at a Mali-400-class power level (a few hundred mW).
The RBCD unit's energy is priced separately in
:mod:`repro.energy.rbcd_power` and added by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats
from repro.observability.counters import CounterAlgebra, CounterRegistry


@dataclass(frozen=True, slots=True)
class GPUEnergyParams:
    """Joules per activity event, plus static power."""

    vertex_shaded_j: float = 400e-12
    triangle_assembled_j: float = 60e-12
    bin_store_j: float = 30e-12          # polygon-list record write
    tile_load_j: float = 20e-12          # polygon-list record read
    cache_miss_line_j: float = 1600e-12  # 64 B line from system memory
    fragment_rasterized_j: float = 15e-12
    early_z_test_j: float = 8e-12
    fragment_shaded_j: float = 700e-12   # dominant term
    texture_access_j: float = 120e-12
    color_write_j: float = 30e-12
    static_power_w: float = 0.12


@dataclass
class GPUEnergyBreakdown(CounterAlgebra):
    """Per-category energy of one frame (or an accumulation).

    The accumulation algebra (``a + b``, ``sum``-compatible
    ``__radd__``, ``Cls.sum``) comes from
    :class:`~repro.observability.counters.CounterAlgebra`: every field
    is a plain sum, so per-frame breakdowns accumulate exactly like the
    counters they are priced from.
    """

    geometry_j: float = 0.0
    raster_j: float = 0.0
    fragment_j: float = 0.0
    memory_j: float = 0.0
    static_j: float = 0.0

    @property
    def total_j(self) -> float:
        return (
            self.geometry_j
            + self.raster_j
            + self.fragment_j
            + self.memory_j
            + self.static_j
        )

    def registry(self) -> CounterRegistry:
        """Named counter view (``energy.gpu.*``, joules)."""
        out = CounterRegistry()
        for f in fields(self):
            name = f"energy.gpu.{f.name}"
            out.counter(name, kind="float", unit="J")
            out.set(name, getattr(self, f.name))
        out.counter("energy.gpu.total_j", kind="float", unit="J")
        out.set("energy.gpu.total_j", self.total_j)
        return out


class GPUEnergyModel:
    """Prices :class:`GPUStats` into joules."""

    def __init__(
        self,
        gpu_config: GPUConfig | None = None,
        params: GPUEnergyParams | None = None,
    ) -> None:
        self.gpu_config = gpu_config if gpu_config is not None else GPUConfig()
        self.params = params if params is not None else GPUEnergyParams()

    def breakdown(self, stats: GPUStats) -> GPUEnergyBreakdown:
        p = self.params
        geometry = (
            stats.vertices_shaded * p.vertex_shaded_j
            + stats.triangles_assembled * p.triangle_assembled_j
            + stats.tile_cache_stores * p.bin_store_j
        )
        raster = (
            stats.tile_cache_loads * p.tile_load_j
            + stats.fragments_produced * p.fragment_rasterized_j
            + stats.early_z_tests * p.early_z_test_j
        )
        fragment = (
            stats.fragments_shaded * p.fragment_shaded_j
            + stats.texture_accesses * p.texture_access_j
            + stats.color_writes * p.color_write_j
        )
        memory = (
            stats.vertex_cache_misses
            + stats.tile_cache_store_misses
            + stats.tile_cache_load_misses
        ) * p.cache_miss_line_j
        seconds = self.gpu_config.cycles_to_seconds(stats.gpu_cycles)
        static = p.static_power_w * seconds
        return GPUEnergyBreakdown(
            geometry_j=geometry,
            raster_j=raster,
            fragment_j=fragment,
            memory_j=memory,
            static_j=static,
        )

    def total_j(self, stats: GPUStats) -> float:
        return self.breakdown(stats).total_j
