"""Per-layer tracing from outside the program.

A traced run replaces each layer's public function at the place the
pipeline looks it up (a module global or a class attribute) with a
wrapper that records a span ``(name, start, end, parent)`` and, for some
layers, work counts read off the call's arguments and result.  Spans
stay in memory and are written once at the end of the run.
:meth:`SpanRecorder.restore` puts every original attribute back, so an
untraced round runs the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _vertices(args, result):
    yield "vertices_shaded", sum(d.draw.mesh.vertex_count for d in result)


def _assembly(args, result):
    stats = args[2]
    yield "triangles_assembled", stats.triangles_assembled
    yield "triangles_binned", stats.triangles_binned


def _binning(args, result):
    yield "prim_tile_pairs", result.pair_count


def _cache(args, result):
    yield "cache_accesses", len(args[1])
    yield "cache_misses", result


def _raster(args, result):
    yield "fragments", result.count


def _depth(args, result):
    yield "depth_tests", result.passed.size
    yield "depth_passes", int(result.passed.sum())


def _tiles(args, result):
    yield "tiles", len(result)


def _absorb(args, result):
    tile = args[1]
    yield "zeb_insertions", tile.zeb.insertions
    yield "zeb_overflows", tile.zeb.overflow_events
    yield "pair_records", tile.overlap.pair_records


def _step(args, result):
    if result:
        yield "batches", 1
        yield "served", result


# (owner, attribute, span name, counter).  The owner is a module when
# the pipeline calls the function through a module global, and a class
# when it calls a method.  ``frame`` is the root span of one detection.
PATCHES = (
    ("repro.core:RBCDSystem", "detect_frame", "frame", None),
    ("repro.scenes.scene:Scene", "frame_at", "scenes.frame_at", None),
    ("repro.gpu.pipeline", "shade_draws", "gpu.shading.shade_draws", _vertices),
    ("repro.gpu.pipeline", "assemble", "gpu.assembly.assemble", _assembly),
    ("repro.gpu.pipeline", "bin_triangles", "gpu.tiling.bin", _binning),
    ("repro.gpu.pipeline", "fetch_tile_lists", "gpu.tiling.fetch", None),
    ("repro.gpu.caches:Cache", "access_many", "gpu.caches.access", _cache),
    ("repro.gpu.pipeline", "rasterize", "gpu.raster.rasterize", _raster),
    ("repro.gpu.pipeline", "depth_test", "gpu.earlyz.depth_test", _depth),
    ("repro.gpu.pipeline", "shade_fragments", "gpu.fragment.shade", None),
    ("repro.gpu.pipeline", "gather_tile_tasks", "gpu.parallel.gather", _tiles),
    ("repro.gpu.parallel:TileExecutor", "run", "gpu.parallel.run", None),
    ("repro.gpu.parallel", "compute_tile", "rbcd.compute_tile", None),
    ("repro.rbcd.unit:RBCDUnit", "absorb", "rbcd.absorb", _absorb),
    ("repro.energy.report:EnergyAccount", "frame_report",
     "energy.frame_report", None),
    ("repro.observability.live:LiveMonitor", "observe",
     "observability.monitor_observe", None),
    ("repro.observability.flightrecorder:FlightRecorder", "record_span",
     "observability.recorder", None),
    ("repro.observability.flightrecorder:FlightRecorder", "_on_monitor_event",
     "observability.recorder", None),
    ("repro.serve.service:CollisionService", "step", "serve.step", _step),
)


def resolve_owner(path: str):
    """The module or class named ``module[:Class]``."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def patched_attributes() -> dict[tuple[str, str], object]:
    """The current raw value of every attribute a traced run replaces."""
    return {
        (path, attr): vars(resolve_owner(path))[attr]
        for path, attr, _, _ in PATCHES
    }


class SpanRecorder:
    """In-memory spans and per-frame counts for the traced rounds.

    Single-threaded by design: every wrapped call of the workloads runs
    on the thread that drives them (process-pool workers never see the
    wrappers), so one parent stack suffices.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        # id(Frame) -> (detect_frame start, that frame's counts)
        self.frames: dict[int, tuple[float, dict[str, float]]] = {}
        # (index one past a segment's last span, its host-speed factor)
        self.segments: list[tuple[int, float]] = []
        self._stack: list[int] = []
        self._frame_counts: dict[str, float] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every layer entry point with its recording wrapper."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for path, attr, name, counter in PATCHES:
            owner = resolve_owner(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack
        is_frame = name == "frame"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            outer_counts = self._frame_counts
            if is_frame:
                self._frame_counts = {}
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if is_frame:
                    self.frames[id(args[1])] = (start, self._frame_counts)
                    self._frame_counts = outer_counts
            if counter is not None:
                sink = (
                    self._frame_counts
                    if self._frame_counts is not None else self.counts
                )
                for key, value in counter(args, result):
                    sink[key] = sink.get(key, 0) + value
            return result

        return wrapper

    def end_segment(self, speed: float) -> None:
        """Close the spans recorded since the previous segment; their
        host times scale by ``speed``."""
        self.segments.append((len(self.spans), speed))

    # -- results -------------------------------------------------------------

    def times_by_name(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name, at reference speed.

        A span's self time is its duration minus the durations of its
        direct children (children run inside it, one after another).
        """
        durations = [0.0] * len(self.spans)
        first = 0
        for end_index, speed in self.segments:
            for i in range(first, end_index):
                _, start, end, _ = self.spans[i]
                durations[i] = (end - start) * speed
            first = end_index
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            inclusive[name] = inclusive.get(name, 0.0) + durations[i]
            own[name] = own.get(name, 0.0) + durations[i] - child[i]
        return inclusive, own

    def frame_spans(self) -> int:
        return sum(1 for span in self.spans if span[0] == "frame")

    def to_document(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [list(span) for span in self.spans],
            "segments": [list(r) for r in self.segments],
        }


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    grid_counts: list[dict[str, float]],
    rejections: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name.

    Times are host milliseconds per traced frame, at reference host
    speed.  Counts are per frame,
    averaged over ``grid_counts`` — one traced pass over every grid
    frame exactly once — so they repeat exactly from run to run.
    """
    inclusive, own = recorder.times_by_name()
    frames = recorder.frame_spans()

    def ms(table: dict[str, float], name: str) -> float:
        return ratio(table.get(name, 0.0) * 1000.0, frames)

    total: dict[str, float] = {}
    for counts in grid_counts:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    n = len(grid_counts)

    def per_frame(key: str) -> float:
        return ratio(total.get(key, 0), n)

    frame_ms = ms(inclusive, "frame")
    self_ms = ms(own, "frame")
    served = recorder.counts.get("served", 0)
    return {
        "scenes.frame_at_ms": ms(inclusive, "scenes.frame_at"),
        "gpu.shading.shade_draws_ms": ms(own, "gpu.shading.shade_draws"),
        "gpu.shading.vertices_shaded": per_frame("vertices_shaded"),
        "gpu.assembly.assemble_ms": ms(own, "gpu.assembly.assemble"),
        "gpu.assembly.triangles": per_frame("triangles_assembled"),
        "gpu.assembly.binned_ratio": ratio(
            total.get("triangles_binned", 0),
            total.get("triangles_assembled", 0),
        ),
        "gpu.tiling.bin_ms": ms(own, "gpu.tiling.bin"),
        "gpu.tiling.fetch_ms": ms(own, "gpu.tiling.fetch"),
        "gpu.tiling.prim_tile_pairs": per_frame("prim_tile_pairs"),
        "gpu.caches.access_ms": ms(inclusive, "gpu.caches.access"),
        "gpu.caches.accesses": per_frame("cache_accesses"),
        "gpu.caches.hit_ratio": 1.0 - ratio(
            total.get("cache_misses", 0), total.get("cache_accesses", 0)
        ),
        "gpu.raster.rasterize_ms": ms(own, "gpu.raster.rasterize"),
        "gpu.raster.fragments": per_frame("fragments"),
        "gpu.earlyz.depth_test_ms": ms(own, "gpu.earlyz.depth_test"),
        "gpu.earlyz.pass_ratio": ratio(
            total.get("depth_passes", 0), total.get("depth_tests", 0)
        ),
        "gpu.fragment.shade_ms": ms(own, "gpu.fragment.shade"),
        "gpu.parallel.gather_ms": ms(own, "gpu.parallel.gather"),
        "gpu.parallel.run_ms": ms(inclusive, "gpu.parallel.run"),
        "gpu.parallel.dispatch_ms": ms(own, "gpu.parallel.run"),
        "rbcd.compute_tile_ms": ms(inclusive, "rbcd.compute_tile"),
        "rbcd.absorb_ms": ms(own, "rbcd.absorb"),
        "rbcd.tiles": per_frame("tiles"),
        "rbcd.zeb_insertions": per_frame("zeb_insertions"),
        "rbcd.overflow_ratio": ratio(
            total.get("zeb_overflows", 0), total.get("zeb_insertions", 0)
        ),
        "rbcd.pair_records": per_frame("pair_records"),
        "energy.frame_report_ms": ms(own, "energy.frame_report"),
        "gpu.pipeline.frame_ms": frame_ms,
        "gpu.pipeline.self_ms": self_ms,
        "gpu.pipeline.residual_ratio": ratio(self_ms, frame_ms),
        "serve.step_ms": ms(own, "serve.step"),
        "serve.batches": ratio(recorder.counts.get("batches", 0), served),
        "serve.rejections": float(rejections),
        "observability.monitor_observe_ms": ms(
            own, "observability.monitor_observe"
        ),
        "observability.recorder_ms": ms(inclusive, "observability.recorder"),
    }
