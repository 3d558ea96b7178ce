"""Per-frame GPU activity counters.

These are the "activity factors" behind the paper's Figures 9-11: tile
cache loads/stores and misses, primitives before/after deferred culling,
fragments produced, raster/fragment/geometry cycles, and the RBCD
unit's own activity.  ``GPUStats`` instances add together so multi-frame
runs can accumulate.

The accumulation algebra (``a + b``, ``sum``-compatibility,
``Cls.sum``) comes from
:class:`repro.observability.counters.CounterAlgebra`, and
:meth:`GPUStats.registry` exposes the same numbers as a named
:class:`~repro.observability.counters.CounterRegistry`
(``gpu.geometry.*`` / ``gpu.raster.*`` / ``gpu.rbcd.*`` / ``gpu.mem.*``)
for exporters and the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.observability.counters import CounterAlgebra, CounterRegistry

# Field -> namespace for the registry view.  Fields not listed fall in
# the "gpu" root namespace (currently only ``frames`` and the whole-GPU
# cycle totals).
_GPU_NAMESPACES = {
    "gpu.geometry": (
        "vertices_fetched", "vertices_shaded", "vertex_cache_accesses",
        "vertex_cache_misses", "triangles_assembled", "triangles_clipped",
        "triangles_frustum_culled", "triangles_face_culled",
        "triangles_tagged_to_be_culled", "triangles_degenerate",
        "triangles_binned", "prim_tile_pairs", "tile_cache_stores",
        "tile_cache_store_misses", "geometry_cycles",
    ),
    "gpu.raster": (
        "tiles_processed", "prims_rasterized", "tile_cache_loads",
        "tile_cache_load_misses", "fragments_produced",
        "fragments_tagged_culled", "early_z_tests", "early_z_passes",
        "fragments_shaded", "texture_accesses", "color_writes",
        "raster_cycles", "fragment_cycles", "fragment_idle_cycles",
        "raster_pipeline_cycles", "raster_stall_cycles",
    ),
    "gpu.rbcd": (
        "rbcd_fragments_in", "zeb_insertions", "zeb_overflow_events",
        "zeb_spare_allocations", "zeb_lists_analyzed",
        "overlap_elements_read", "ff_stack_overflows",
        "unmatched_backfaces", "collision_pairs_emitted", "rbcd_cycles",
        "cpu_fallback_frames",
    ),
    "gpu.mem": ("dram_bytes_read", "dram_bytes_written"),
}

_FIELD_PREFIX = {
    name: prefix for prefix, names in _GPU_NAMESPACES.items() for name in names
}


@dataclass
class GPUStats(CounterAlgebra):
    """Counters for one rendered frame (or an accumulation of frames)."""

    frames: int = 0

    # -- geometry pipeline ---------------------------------------------------
    vertices_fetched: int = 0
    vertices_shaded: int = 0
    vertex_cache_accesses: int = 0
    vertex_cache_misses: int = 0
    triangles_assembled: int = 0
    triangles_clipped: int = 0          # produced by the clipper
    triangles_frustum_culled: int = 0
    triangles_face_culled: int = 0      # actually removed at FC
    triangles_tagged_to_be_culled: int = 0  # deferred FC (collisionable)
    triangles_degenerate: int = 0
    triangles_binned: int = 0           # survived geometry pipeline
    prim_tile_pairs: int = 0            # polygon-list entries written
    tile_cache_stores: int = 0
    tile_cache_store_misses: int = 0
    geometry_cycles: float = 0.0

    # -- raster pipeline ------------------------------------------------------
    tiles_processed: int = 0
    prims_rasterized: int = 0           # tile-fetcher reads (per tile visit)
    tile_cache_loads: int = 0
    tile_cache_load_misses: int = 0
    fragments_produced: int = 0
    fragments_tagged_culled: int = 0    # dropped after raster (deferred FC)
    early_z_tests: int = 0
    early_z_passes: int = 0
    fragments_shaded: int = 0
    texture_accesses: int = 0
    color_writes: int = 0
    raster_cycles: float = 0.0          # rasterizer busy cycles
    fragment_cycles: float = 0.0        # fragment-processor busy cycles
    fragment_idle_cycles: float = 0.0   # fragment processors starved
    raster_pipeline_cycles: float = 0.0  # wall-clock of the raster pipeline
    raster_stall_cycles: float = 0.0    # rasterizer blocked on ZEB

    # -- RBCD unit --------------------------------------------------------------
    rbcd_fragments_in: int = 0          # collisionable fragments received
    zeb_insertions: int = 0
    zeb_overflow_events: int = 0
    zeb_spare_allocations: int = 0
    zeb_lists_analyzed: int = 0         # non-empty lists scanned
    overlap_elements_read: int = 0
    ff_stack_overflows: int = 0         # FF-Stack pushes past capacity
    unmatched_backfaces: int = 0        # back faces with no open front
    collision_pairs_emitted: int = 0    # pair records written out
    rbcd_cycles: float = 0.0            # Z-overlap test busy cycles
    cpu_fallback_frames: int = 0        # frames punted to software CD

    # -- memory traffic ----------------------------------------------------------
    dram_bytes_read: float = 0.0
    dram_bytes_written: float = 0.0

    # -- whole GPU -----------------------------------------------------------------
    gpu_cycles: float = 0.0             # geometry + raster wall clock

    # Accumulation algebra (``+``, ``__radd__``, ``sum``, ``as_dict``) is
    # inherited from CounterAlgebra: every field is a plain sum.

    def registry(self) -> CounterRegistry:
        """Named counter view (``gpu.<stage>.<field>`` namespacing)."""
        out = CounterRegistry()
        for f in fields(self):
            prefix = _FIELD_PREFIX.get(f.name, "gpu")
            name = f"{prefix}.{f.name}"
            value = getattr(self, f.name)
            unit = "cycles" if "cycles" in f.name else (
                "bytes" if "bytes" in f.name else ""
            )
            kind = "float" if isinstance(value, float) else "int"
            out.counter(name, kind=kind, unit=unit)
            out.set(name, value)
        return out

    # -- derived ratios (used by the figures) -----------------------------------

    @property
    def zeb_overflow_rate(self) -> float:
        """Fraction of insertion attempts that found a full list (Table 3).

        ``zeb_insertions`` counts *attempts* (every collisionable
        fragment reaching the unit); ``zeb_overflow_events`` is the
        subset that found its pixel list already full.
        """
        if self.zeb_insertions == 0:
            return 0.0
        return self.zeb_overflow_events / self.zeb_insertions

    @property
    def early_z_pass_rate(self) -> float:
        if self.early_z_tests == 0:
            return 0.0
        return self.early_z_passes / self.early_z_tests

    @property
    def dram_bytes_total(self) -> float:
        return self.dram_bytes_read + self.dram_bytes_written

    def bandwidth_utilization(self, bytes_per_cycle: float) -> float:
        """Fraction of the memory interface's capacity this frame used.

        Above 1.0 the frame would be bandwidth-bound and the computed
        cycle counts optimistic; the Table-2 interface (4 B/cycle) has
        ample headroom for these workloads, which this property lets
        tests assert.
        """
        if self.gpu_cycles <= 0:
            return 0.0
        return self.dram_bytes_total / (self.gpu_cycles * bytes_per_cycle)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        d = self.as_dict()
        width = max(len(k) for k in d)
        lines = [f"{k:<{width}} : {v:,.0f}" if isinstance(v, int) else
                 f"{k:<{width}} : {v:,.1f}" for k, v in d.items() if v]
        return "\n".join(lines)

