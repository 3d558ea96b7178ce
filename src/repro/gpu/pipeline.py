"""Top-level GPU: geometry pipeline + raster pipeline + RBCD unit.

``GPU.render_frame`` runs the whole TBR flow of Figure 3 for one frame
and returns the image, the Z-buffer, the activity statistics, the
collision report (when RBCD is enabled) and the cycle timings.

Timing model
------------
The geometry pipeline and the raster pipeline are decoupled phases (the
raster phase starts when binning has finished), so

``gpu_cycles = geometry_cycles + raster_pipeline_cycles``.

Geometry throughput is the max of its pipelined stages (vertex
processing, primitive assembly, polygon-list building).

The raster phase processes tiles in order through three units — the
Rasterizer, the fragment processors, and (when present) the RBCD unit's
Z-Overlap Test — with these constraints, directly from Section 3.5:

* one Rasterizer: tile ``t`` starts after tile ``t-1`` finishes
  rasterizing **and** a ZEB is free, i.e. the Z-Overlap Test of tile
  ``t - zeb_count`` has completed;
* one Z-Overlap unit: analyses tiles in order, each starting once its
  tile is fully rasterized;
* fragment processors consume a tile's shading work only after the tile
  is rasterized.

The recurrence yields exactly the paper's stall behaviour: with one ZEB
the Rasterizer blocks whenever overlap analysis lags, and the fragment
processors go idle when their queue drains during the block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from typing import TYPE_CHECKING

import numpy as np

from repro.gpu.assembly import TriangleSoup, assemble
from repro.gpu.caches import Cache
from repro.gpu.commands import Frame
from repro.gpu.config import GPUConfig
from repro.gpu.earlyz import DepthTestResult, depth_test
from repro.gpu.fragment import (
    ShadingResult,
    fragment_shader_cycles_per_draw,
    shade_fragments,
)
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.raster import FragmentSoup, rasterize
from repro.gpu.shading import shade_draws, vertex_stage_cycles
from repro.gpu.stats import GPUStats
from repro.gpu.tiling import bin_triangles, fetch_tile_lists
from repro.observability.tracer import ensure_tracer
from repro.rbcd.pairs import CollisionReport
from repro.rbcd.unit import RBCDUnit

if TYPE_CHECKING:  # repro.energy imports repro.gpu; break the cycle here
    from repro.energy.report import EnergyAccount, FrameEnergyReport


@dataclass
class TileTiming:
    """Per-tile cycle inputs and the resolved schedule."""

    raster_cycles: np.ndarray
    fragment_cycles: np.ndarray
    overlap_cycles: np.ndarray
    raster_start: np.ndarray
    raster_end: np.ndarray
    overlap_end: np.ndarray
    fragment_end: np.ndarray
    stall_cycles: float
    total_cycles: float


@dataclass
class FrameResult:
    """Everything one frame produced."""

    color: np.ndarray              # (H, W, 3)
    z_buffer: np.ndarray           # (H, W)
    stats: GPUStats
    collisions: CollisionReport | None
    cpu_fallback: bool = False     # Section 5.3 overflow fallback fired
    tile_timing: TileTiming | None = None
    fragments: FragmentSoup | None = None  # kept on request (M sweeps)
    energy: FrameEnergyReport | None = None  # modelled joules + EDP

    @property
    def gpu_cycles(self) -> float:
        return self.stats.gpu_cycles


# How far (in cycles) the Rasterizer may run ahead of fragment
# consumption: the 64-entry fragment queue at 4 fragments/cycle.
_QUEUE_COVERAGE_CYCLES = 16.0


def _tile_schedule(
    raster: np.ndarray,
    fragment: np.ndarray,
    overlap: np.ndarray,
    zeb_count: int,
) -> TileTiming:
    """Resolve the per-tile pipeline recurrence (see module docstring).

    The Rasterizer-to-fragment-processor queue holds 64 entries
    (Table 2), which is a fraction of one tile's fragments — so the
    two stages run in near lock-step (a blocking flow shop): the
    Rasterizer can produce at most ``_QUEUE_COVERAGE_CYCLES`` worth of
    fragments beyond what the fragment processors have consumed, and
    the fragment processors cannot finish a tile before the Rasterizer
    has finished producing it.  Extra raster work (deferred culling,
    ZEB stalls) is therefore hidden exactly where the paper says it is:
    in tiles whose fragment-shading work exceeds their raster work.
    """
    # Plain Python floats: the recurrence is scalar, and indexing numpy
    # arrays per tile costs more than its arithmetic.
    raster_start: list[float] = []
    raster_end: list[float] = []
    overlap_end: list[float] = []
    fragment_end: list[float] = []
    stall = 0.0
    prev_raster_end = 0.0
    prev_overlap_end = 0.0
    prev_fragment_end = 0.0
    for t, (r, f, o) in enumerate(
        zip(raster.tolist(), fragment.tolist(), overlap.tolist())
    ):
        zeb_free_at = overlap_end[t - zeb_count] if t >= zeb_count else 0.0
        queue_limit = prev_fragment_end - _QUEUE_COVERAGE_CYCLES
        start = max(prev_raster_end, queue_limit, zeb_free_at)
        stall += max(0.0, zeb_free_at - max(prev_raster_end, queue_limit))
        end = start + r
        o_end = max(end, prev_overlap_end) + o
        # Fragments stream into the processors as they are rasterized;
        # the tile cannot finish shading before it finishes rasterizing.
        f_start = max(prev_fragment_end, start)
        f_end = max(f_start + f, end)
        raster_start.append(start)
        raster_end.append(end)
        overlap_end.append(o_end)
        fragment_end.append(f_end)
        prev_raster_end = end
        prev_overlap_end = o_end
        prev_fragment_end = f_end
    total = float(max(prev_raster_end, prev_overlap_end, prev_fragment_end))
    return TileTiming(
        raster_cycles=raster,
        fragment_cycles=fragment,
        overlap_cycles=overlap,
        raster_start=np.array(raster_start, dtype=np.float64),
        raster_end=np.array(raster_end, dtype=np.float64),
        overlap_end=np.array(overlap_end, dtype=np.float64),
        fragment_end=np.array(fragment_end, dtype=np.float64),
        stall_cycles=stall,
        total_cycles=total,
    )


class GPU:
    """A tile-based GPU instance, optionally with an RBCD unit.

    ``rbcd_enabled=False`` models the paper's baseline GPU
    (conventional early face culling, no ZEB/overlap hardware).
    """

    def __init__(
        self,
        config: GPUConfig | None = None,
        rbcd_enabled: bool = True,
        rendering_mode: str = "tbr",
        tracer=None,
        observers=(),
    ) -> None:
        """``rendering_mode``:

        * "tbr" — the Mali-400-like tile-based baseline (the paper's);
        * "tbdr" — PowerVR-style deferred shading (Section 3.1): the
          fragment processors run only for visible pixels;
        * "imr" — immediate-mode rendering (Tegra-style, Section 3.1):
          no tiling, overdraw writes to the off-chip color buffer.  The
          paper scopes RBCD to tile-based GPUs, so IMR is baseline-only
          (``rbcd_enabled`` must be False); it exists to quantify the
          TBR-vs-IMR memory-traffic trade the paper describes.

        ``tracer`` accepts a :class:`repro.observability.Tracer`; every
        frame then records stage spans (frame → geometry/raster/rbcd →
        per-tile) carrying host wall time and simulated cycles.  Tracing
        is purely observational — it changes no result and no cycle
        count — and defaults to the zero-overhead null tracer.

        ``observers`` is a sequence of
        :class:`~repro.observability.observer.FrameObserver` — e.g. a
        :class:`~repro.observability.provenance.ProvenanceRecorder`
        (per-pair evidence), a
        :class:`~repro.observability.live.LiveMonitor` (streaming
        snapshots and watchdogs) or a
        :class:`~repro.observability.tileprofile.TileProfiler`
        (per-tile grids).  :meth:`render_frame` calls their hooks at
        frame begin, after each absorbed RBCD tile (tile-schedule
        order) and at frame end.  Observers are strictly observational:
        every result is bit-identical with any set of them attached.
        """
        if rendering_mode not in ("tbr", "tbdr", "imr"):
            raise ValueError('rendering_mode must be "tbr", "tbdr" or "imr"')
        if rendering_mode == "imr" and rbcd_enabled:
            raise ValueError(
                "RBCD requires a tile-based pipeline (the per-tile ZEB); "
                "IMR mode is baseline-only, as in the paper's Section 3.1"
            )
        self.config = config if config is not None else GPUConfig()
        self.rbcd_enabled = rbcd_enabled
        self.rendering_mode = rendering_mode
        self.tracer = ensure_tracer(tracer)
        self.observers = tuple(observers)
        self._executor = TileExecutor()
        self._energy_account: EnergyAccount | None = None

    @property
    def energy_account(self) -> "EnergyAccount":
        """The energy pricing models for this GPU's configuration."""
        if self._energy_account is None:
            from repro.energy.report import EnergyAccount

            self._energy_account = EnergyAccount(self.config)
        return self._energy_account

    def render_frame(
        self,
        frame: Frame,
        keep_tile_timing: bool = False,
        keep_fragments: bool = False,
    ) -> FrameResult:
        """Render one frame; returns image, stats and collisions.

        The one place observer hooks fire, for every rendering mode:
        ``begin_frame`` first, ``record_tile`` per absorbed RBCD tile,
        ``end_frame`` last.  A frame that raises closes its spans and
        gets no ``end_frame``.
        """
        wall_t0 = time.perf_counter()
        for observer in self.observers:
            observer.begin_frame(self.config)
        with self.tracer.span(
            "frame", category="frame", draws=len(frame.draws)
        ) as frame_span:
            if self.rendering_mode == "imr":
                result = self._render_imr(frame)
            else:
                result = self._render_tiled(
                    frame, keep_tile_timing, keep_fragments
                )
            frame_span.cycles = result.stats.gpu_cycles
            frame_span.annotate(
                fragments=result.stats.fragments_produced,
                energy_j=result.energy.total_j,
            )
        wall_s = time.perf_counter() - wall_t0
        for observer in self.observers:
            observer.end_frame(result, wall_s)
        return result

    def _render_tiled(
        self, frame: Frame, keep_tile_timing: bool, keep_fragments: bool
    ) -> FrameResult:
        """The TBR / TBDR flow of Figure 3 (see the module docstring)."""
        tracer = self.tracer
        config = self.config
        stats = GPUStats(frames=1)
        vertex_cache = Cache(config.vertex_cache)
        tile_cache = Cache(config.tile_cache)

        # -- geometry pipeline --------------------------------------------
        with tracer.span("geometry") as geometry_span:
            with tracer.span("geometry.shade") as shade_span:
                shaded = shade_draws(frame, config, stats, vertex_cache)
            with tracer.span("geometry.assemble") as assemble_span:
                soup = assemble(
                    shaded, config, stats, deferred_culling=self.rbcd_enabled
                )
            with tracer.span("geometry.bin") as bin_span:
                binning = bin_triangles(soup, config, stats, tile_cache)

            vertex_cycles = vertex_stage_cycles(stats, config)
            assembly_cycles = (
                stats.triangles_assembled / config.primitive_assembly_tris_per_cycle
            )
            binning_cycles = (
                stats.prim_tile_pairs * config.binning_cycles_per_prim_tile
                + stats.tile_cache_store_misses * config.l2_cache.latency_cycles
            )
            stats.geometry_cycles = max(vertex_cycles, assembly_cycles, binning_cycles)
            shade_span.cycles = vertex_cycles
            assemble_span.cycles = assembly_cycles
            bin_span.cycles = binning_cycles
            geometry_span.cycles = stats.geometry_cycles

        # -- raster pipeline: functional pass ------------------------------
        with tracer.span("raster") as raster_span:
            with tracer.span("raster.fetch"):
                tile_load_misses = fetch_tile_lists(
                    binning, config, stats, tile_cache
                )
            with tracer.span("raster.rasterize"):
                frags = rasterize(soup, config, stats)
            tile_idx = frags.tile_index(config)

            if frame.raster_only:
                depth = DepthTestResult(
                    passed=np.zeros(frags.count, dtype=bool),
                    z_buffer=np.ones(
                        (config.screen_height, config.screen_width)
                    ),
                    winner=np.full(
                        (config.screen_height, config.screen_width), -1,
                        dtype=np.int64,
                    ),
                )
                shading = ShadingResult(
                    color=np.zeros(
                        (config.screen_height, config.screen_width, 3)
                    ),
                    shaded_mask=np.zeros(frags.count, dtype=bool),
                    shader_cycles_total=0.0,
                )
            else:
                with tracer.span("raster.early-z"):
                    depth = depth_test(frags, config, stats)
                with tracer.span("raster.shade"):
                    shading = shade_fragments(
                        frame, frags, depth, config, stats,
                        deferred_shading=self.rendering_mode == "tbdr",
                    )

        # -- RBCD unit -----------------------------------------------------------
        report: CollisionReport | None = None
        overlap_cycles = np.zeros(config.tile_count)
        insertion_limit = np.zeros(config.tile_count)
        cpu_fallback = False
        if self.rbcd_enabled:
            with tracer.span("rbcd") as rbcd_span:
                unit = RBCDUnit(config)
                report = self._run_rbcd(
                    unit, frags, tile_idx, stats, overlap_cycles,
                    insertion_limit,
                )
                cpu_fallback = unit.wants_cpu_fallback()
                if cpu_fallback:
                    stats.cpu_fallback_frames += 1
                rbcd_span.cycles = float(overlap_cycles.sum())
                rbcd_span.annotate(
                    pairs=report.pair_records_written,
                    cpu_fallback=cpu_fallback,
                )

        # -- raster pipeline: timing --------------------------------------------
        with tracer.span("schedule") as schedule_span:
            frags_per_tile = np.bincount(tile_idx, minlength=config.tile_count)

            shader_cycles_tile = np.zeros(config.tile_count)
            if frags.count and not frame.raster_only:
                per_draw = fragment_shader_cycles_per_draw(frame, config)
                shaded_idx = np.flatnonzero(shading.shaded_mask)
                np.add.at(
                    shader_cycles_tile,
                    tile_idx[shaded_idx],
                    per_draw[frags.draw_index[shaded_idx]],
                )

            prims_per_tile = np.diff(binning.tile_offsets).astype(np.float64)
            raster_busy_cycles = (
                prims_per_tile * config.raster_setup_cycles_per_tri
                + frags_per_tile / config.rasterizer_frags_per_cycle
                + tile_load_misses * config.l2_cache.latency_cycles
            )
            # The insertion-sort unit accepts one fragment per cycle; a tile
            # whose collisionable fragments outnumber raster slots *blocks*
            # the Rasterizer.  The delay enters the schedule, but it is not
            # Rasterizer busy work (the Figure 11 activity factor counts
            # busy cycles only).
            raster_effective = np.maximum(raster_busy_cycles, insertion_limit)
            fragment_cycles = shader_cycles_tile / config.num_fragment_processors

            active = (prims_per_tile > 0) | (frags_per_tile > 0)
            timing = _tile_schedule(
                raster_effective[active],
                fragment_cycles[active],
                overlap_cycles[active],
                config.rbcd.zeb_count if self.rbcd_enabled else 1,
            )

            stats.tiles_processed = int(active.sum())
            stats.raster_cycles = float(raster_busy_cycles[active].sum())
            stats.rbcd_cycles = float(overlap_cycles.sum())
            stats.raster_stall_cycles = timing.stall_cycles
            stats.raster_pipeline_cycles = timing.total_cycles
            stats.fragment_idle_cycles = timing.total_cycles - float(
                fragment_cycles[active].sum()
            )
            stats.gpu_cycles = stats.geometry_cycles + stats.raster_pipeline_cycles
            schedule_span.cycles = timing.stall_cycles
        raster_span.cycles = stats.raster_pipeline_cycles

        # Off-chip traffic (TBR: polygon lists both ways, vertex fetch
        # misses, one color write per covered pixel at tile flush).
        line = config.l2_cache.line_bytes
        stats.dram_bytes_read = float(
            (stats.vertex_cache_misses + stats.tile_cache_load_misses) * line
        )
        stats.dram_bytes_written = float(
            stats.tile_cache_store_misses * line + stats.color_writes * 4
        )

        return FrameResult(
            color=shading.color,
            z_buffer=depth.z_buffer,
            stats=stats,
            collisions=report,
            cpu_fallback=cpu_fallback,
            tile_timing=timing if keep_tile_timing else None,
            fragments=frags if keep_fragments else None,
            energy=self.energy_account.frame_report(stats),
        )

    def _render_imr(self, frame: Frame) -> FrameResult:
        """Immediate-mode baseline: no tiling, off-chip overdraw.

        Primitives stream straight from assembly to the rasterizer in
        submission order; the color and depth buffers live in system
        memory, so every early-Z pass writes off-chip (the overdraw
        traffic TBR avoids), while the polygon-list traffic of the
        tiling engine disappears entirely.
        """
        tracer = self.tracer
        config = self.config
        stats = GPUStats(frames=1)
        vertex_cache = Cache(config.vertex_cache)

        with tracer.span("geometry") as geometry_span:
            with tracer.span("geometry.shade"):
                shaded = shade_draws(frame, config, stats, vertex_cache)
            with tracer.span("geometry.assemble"):
                soup = assemble(shaded, config, stats, deferred_culling=False)
            stats.triangles_binned = soup.count  # pass-through, no binning

            vertex_cycles = vertex_stage_cycles(stats, config)
            assembly_cycles = (
                stats.triangles_assembled / config.primitive_assembly_tris_per_cycle
            )
            stats.geometry_cycles = max(vertex_cycles, assembly_cycles)
            geometry_span.cycles = stats.geometry_cycles

        with tracer.span("raster") as raster_span:
            with tracer.span("raster.rasterize"):
                frags = rasterize(soup, config, stats)
            stats.prims_rasterized = soup.count
            with tracer.span("raster.early-z"):
                depth = depth_test(frags, config, stats)
            with tracer.span("raster.shade"):
                shading = shade_fragments(frame, frags, depth, config, stats)

        # Streaming pipeline: raster and shading overlap; the longer
        # stage sets the pace.
        raster_cycles = (
            soup.count * config.raster_setup_cycles_per_tri
            + frags.count / config.rasterizer_frags_per_cycle
        )
        stats.raster_cycles = raster_cycles
        stats.raster_pipeline_cycles = max(raster_cycles, stats.fragment_cycles)
        stats.fragment_idle_cycles = (
            stats.raster_pipeline_cycles - stats.fragment_cycles
        )
        stats.gpu_cycles = stats.geometry_cycles + stats.raster_pipeline_cycles

        # Off-chip traffic: every surviving fragment writes color+depth
        # to memory (overdraw included), every test reads depth.
        stats.dram_bytes_read = float(
            stats.vertex_cache_misses * config.l2_cache.line_bytes
            + stats.early_z_tests * 4
        )
        stats.dram_bytes_written = float(stats.early_z_passes * 8)

        energy = self.energy_account.frame_report(stats)
        raster_span.cycles = stats.raster_pipeline_cycles
        return FrameResult(
            color=shading.color,
            z_buffer=depth.z_buffer,
            stats=stats,
            collisions=None,
            energy=energy,
        )

    def _run_rbcd(
        self,
        unit: RBCDUnit,
        frags: FragmentSoup,
        tile_idx: np.ndarray,
        stats: GPUStats,
        overlap_cycles: np.ndarray,
        insertion_limit: np.ndarray,
    ) -> CollisionReport:
        """Feed every collisionable fragment to the unit, tile by tile.

        :class:`~repro.gpu.parallel.TileExecutor` computes the frame's
        tiles in one pass; the results are absorbed in tile-schedule
        order.

        The host wall time of that one compute pass belongs to the
        enclosing ``rbcd`` stage span.  Per-tile spans and observer
        ``record_tile`` hooks fire afterwards, at absorb time, in
        tile-schedule order: ``rbcd.tile`` and its ``rbcd.zeb-insert``
        / ``rbcd.z-overlap`` children carry the tile's simulated
        insertion/overlap cycles, and their wall time is the absorb
        cost only.
        """
        tracer = self.tracer
        batch = gather_tile_tasks(frags, self.config, tile_idx)
        stats.rbcd_fragments_in += batch.fragment_count
        observers = self.observers
        for result in self._executor.run(self.config, batch):
            with tracer.span(
                "rbcd.tile", category="tile", tile=result.tile_index
            ) as tile_span:
                with tracer.span("rbcd.zeb-insert") as insert_span:
                    insert_span.cycles = result.insertion_cycles
                    insert_span.annotate(insertions=result.zeb.insertions)
                with tracer.span("rbcd.z-overlap") as overlap_span:
                    overlap_span.cycles = result.overlap_cycles
                    overlap_span.annotate(
                        lists=result.analyzed_lists,
                        elements=result.analyzed_elements,
                    )
                unit.absorb(result)
                for observer in observers:
                    observer.record_tile(result)
                tile_span.cycles = result.insertion_cycles + result.overlap_cycles
            overlap_cycles[result.tile_index] = result.overlap_cycles
            insertion_limit[result.tile_index] = result.insertion_cycles

        stats.zeb_insertions += unit.insertions
        stats.zeb_overflow_events += unit.overflow_events
        stats.zeb_spare_allocations += unit.spare_allocations
        stats.zeb_lists_analyzed += unit.lists_analyzed
        stats.overlap_elements_read += unit.elements_read
        stats.ff_stack_overflows += unit.stack_overflows
        stats.unmatched_backfaces += unit.unmatched_backfaces
        stats.collision_pairs_emitted += unit.report.pair_records_written
        return unit.report
