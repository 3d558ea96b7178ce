"""Observers are purely observational: attaching one changes nothing.

One harness for the zero-feedback contract every observer obeys — the
:class:`~repro.observability.observer.FrameObserver` implementations
(provenance recorder, live monitor, tile profiler) and the two
observers that attach their own way (the tracer, and the flight
recorder with its bounded tracer, monitor feed and log capture).  For
each observer × stream length {1, 4 frames} × scene, an observed run is
bit-identical to a bare one — pairs, contact records, counters, cycles
and joules — and the observer demonstrably saw the stream.  The
observer-specific properties follow: what each one records is itself
deterministic across repeat runs, and agrees with the pipeline's
numbers.
"""

import functools

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.hybrid import HybridCDSystem
from repro.observability.flightrecorder import (
    FlightRecorder,
    deterministic_events,
)
from repro.observability.live import LiveMonitor
from repro.observability.observer import FrameObserver
from repro.observability.provenance import ProvenanceRecorder
from repro.observability.tileprofile import TileProfiler
from repro.observability.tracer import Tracer
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias
from tests.conftest import (
    KERNEL_SETS,
    sphere_pair_frame,
    two_boxes_frame,
    use_kernels,
)
from tests.gpu.test_color_oracle import off_screen
from tests.gpu.test_parallel import frame_fingerprint

# The four benchmark scenes plus hand-built primitive pairs that are
# guaranteed to collide (and not to) at this resolution.
SCENES = ("primitives", *BENCHMARKS)
# Every scene is observed as a single frame and as a stream of FRAMES,
# so observers are checked both fresh and carrying cross-frame state.
FRAMES = 4
STREAMS = [1, FRAMES]
CONFIG = GPUConfig().with_screen(160, 96)


@functools.lru_cache(maxsize=None)
def scene_frames(alias: str) -> tuple:
    config = CONFIG
    if alias == "primitives":
        return (
            sphere_pair_frame(config, 0.7),
            two_boxes_frame(config, 0.8),
            two_boxes_frame(config, 1.4),
            sphere_pair_frame(config, 1.5),
        )
    workload = workload_by_alias(alias, detail=1)
    return tuple(
        workload.scene.frame_at(float(t), config)
        for t in workload.times(FRAMES)
    )


def fingerprint(result) -> dict:
    out = frame_fingerprint(result)
    out["energy"] = result.energy.as_dict()
    return out


def render(config, frames, tracer=None, observers=()) -> list[dict]:
    gpu = GPU(config, rbcd_enabled=True, tracer=tracer, observers=observers)
    return [fingerprint(gpu.render_frame(f)) for f in frames]


@functools.lru_cache(maxsize=None)
def bare_run(alias: str, frames: int = FRAMES) -> list[dict]:
    return render(CONFIG, scene_frames(alias)[:frames])


# -- one entry per observer ---------------------------------------------------
#
# Each entry renders a scene with the observer attached and returns the
# frame fingerprints plus the observer's own state for the checks.


def with_tracer(config, frames):
    tracer = Tracer()
    return render(config, frames, tracer=tracer), tracer


def with_provenance(config, frames):
    recorder = ProvenanceRecorder()
    return render(config, frames, observers=[recorder]), recorder


def with_monitor(config, frames):
    monitor = LiveMonitor(window=8)
    return render(config, frames, observers=[monitor]), monitor


def with_tile_profiler(config, frames):
    profiler = TileProfiler()
    return render(config, frames, observers=[profiler]), profiler


def with_flight_recorder(config, frames, capture_logs=True):
    # No dump_dir: the stock rules fire alerts on some scenes, and
    # auto-dump triggers must then only be counted.
    with FlightRecorder(capture_logs=capture_logs) as recorder:
        tracer = recorder.attach_tracer()
        monitor = recorder.attach_monitor(LiveMonitor(window=8))
        recorder.attach_config(config)
        fingerprints = render(
            config, frames, tracer=tracer, observers=[monitor]
        )
    return fingerprints, recorder


OBSERVERS = {
    "tracer": with_tracer,
    "provenance": with_provenance,
    "monitor": with_monitor,
    "tile_profiler": with_tile_profiler,
    "flight_recorder": with_flight_recorder,
}


@functools.lru_cache(maxsize=None)
def observed_run(observer: str, alias: str, frames: int = FRAMES):
    return OBSERVERS[observer](CONFIG, scene_frames(alias)[:frames])


def saw_tracer(tracer, bare):
    assert len(tracer.by_name("frame")) == len(bare)


def saw_provenance(recorder, bare):
    assert recorder.frames == len(bare)


def saw_monitor(monitor, bare):
    assert monitor.frames == len(bare)
    assert monitor.latest.gpu_cycles == bare[-1]["gpu_cycles"]


def saw_tile_profiler(profiler, bare):
    assert profiler.frames == len(bare)
    assert sum(profiler.grid("activity")) == sum(
        fp["stats"]["zeb_insertions"] for fp in bare
    )


def saw_flight_recorder(recorder, bare):
    stats = recorder.stats()
    assert stats["streams"]["default"]["snapshots"] == len(bare)
    assert stats["streams"]["default"]["spans"] > 0
    assert stats["dumps_written"] == 0


SAW = {
    "tracer": saw_tracer,
    "provenance": saw_provenance,
    "monitor": saw_monitor,
    "tile_profiler": saw_tile_profiler,
    "flight_recorder": saw_flight_recorder,
}


@pytest.mark.parametrize("alias", SCENES)
@pytest.mark.parametrize("frames", STREAMS)
@pytest.mark.parametrize("observer", list(OBSERVERS))
def test_observer_changes_nothing(observer, frames, alias):
    bare = bare_run(alias, frames)
    observed, state = observed_run(observer, alias, frames)
    assert observed == bare
    SAW[observer](state, bare)


# -- hook protocol -------------------------------------------------------------


class HookLog(FrameObserver):
    def __init__(self):
        self.calls = []

    def begin_frame(self, config):
        self.calls.append("begin")

    def record_tiles(self, result):
        self.calls.append("tiles")
        self.tiles = len(result)

    def end_frame(self, result, wall_s):
        assert wall_s > 0.0
        self.calls.append("end")


@pytest.mark.parametrize("mode", ["tbr", "tbdr", "imr"])
def test_hooks_fire_once_per_frame_in_every_mode(mode):
    """begin → one record_tiles per RBCD frame → end, the same way for
    every rendering mode (IMR has no RBCD unit, so no tiles)."""
    log = HookLog()
    GPU(
        CONFIG, rbcd_enabled=mode != "imr", rendering_mode=mode,
        observers=[log],
    ).render_frame(sphere_pair_frame(CONFIG, 0.7))
    rbcd = mode != "imr"
    assert log.calls == ["begin"] + ["tiles"] * rbcd + ["end"]
    assert not rbcd or log.tiles > 0


def test_record_tiles_fires_for_a_frame_without_tiles():
    """An RBCD frame with nothing collisionable on screen still gets
    its one ``record_tiles``, with no tiles in it."""
    log = HookLog()
    GPU(CONFIG, observers=[log]).render_frame(
        off_screen(sphere_pair_frame(CONFIG, 0.7))
    )
    assert log.calls == ["begin", "tiles", "end"]
    assert log.tiles == 0


# -- observer-specific properties ----------------------------------------------


@pytest.mark.parametrize("alias", SCENES)
def test_monitor_snapshots_identical_across_repeat_runs(alias):
    """Two runs feed the monitor the exact same snapshot stream
    (wall-clock series excluded: they measure the host, not the model)."""
    _, one = observed_run("monitor", alias)
    _, again = with_monitor(CONFIG, scene_frames(alias))
    assert (
        one.latest.deterministic_fingerprint()
        == again.latest.deterministic_fingerprint()
    )
    assert one.totals() == again.totals()
    values_one, values_again = one.window_values(), again.window_values()
    deterministic = {k for k in values_one if "wall" not in k}
    assert deterministic == {k for k in values_again if "wall" not in k}
    for key in deterministic:
        assert values_one[key] == values_again[key], key
    assert [a.as_dict() for a in one.alerts] == [
        a.as_dict() for a in again.alerts
    ]


def test_monitor_deterministic_across_repeat_runs():
    _, cached = observed_run("monitor", "cap")
    _, again = with_monitor(CONFIG, scene_frames("cap"))
    assert (
        again.latest.deterministic_fingerprint()
        == cached.latest.deterministic_fingerprint()
    )


@pytest.mark.parametrize("alias", SCENES)
def test_evidence_identical_across_repeat_runs(alias):
    _, first = observed_run("provenance", alias)
    _, again = with_provenance(CONFIG, scene_frames(alias))
    assert again.records == first.records
    assert again.case_counts == first.case_counts
    assert again.self_pairs_filtered == first.self_pairs_filtered
    assert again.registry().as_dict() == first.registry().as_dict()


@pytest.mark.parametrize("alias", SCENES)
def test_evidence_matches_the_collision_report(alias):
    """Every emitted pair carries evidence: records correspond 1:1 to
    the report's contact records, frame by frame."""
    bare = bare_run(alias)
    _, recorder = observed_run("provenance", alias)
    assert recorder.pairs_recorded == sum(
        fp["pair_records_written"] for fp in bare
    )
    for frame, fp in enumerate(bare):
        evidence = {ev.pair for ev in recorder.records if ev.frame == frame}
        assert sorted(evidence) == fp["pairs"]
    if alias == "primitives":
        assert recorder.pairs_recorded > 0  # the sphere pair collides


@pytest.mark.parametrize("alias", SCENES)
def test_recorder_counters_stay_out_of_the_unit_registry(alias):
    """The recorder's counters live in their own registry; attaching it
    adds no names to the frame's GPU registry."""
    observed, recorder = observed_run("provenance", alias)
    assert recorder.registry().as_dict()
    for fp in observed:
        assert not any(
            name.startswith(("rbcd.case.", "rbcd.evidence."))
            for name in fp["stats"]
        )


@pytest.mark.parametrize("alias", SCENES)
def test_traced_spans_report_the_untraced_cycles(alias):
    """The tracer's numbers come *from* the pipeline: frame, geometry
    and raster spans carry the untraced run's cycles exactly."""
    bare = bare_run(alias)
    _, tracer = observed_run("tracer", alias)
    for name, value in (
        ("frame", lambda fp: fp["gpu_cycles"]),
        ("geometry", lambda fp: fp["stats"]["geometry_cycles"]),
        ("raster", lambda fp: fp["stats"]["raster_pipeline_cycles"]),
        ("rbcd", lambda fp: fp["stats"]["rbcd_cycles"]),
    ):
        assert [s.cycles for s in tracer.by_name(name)] == [
            value(fp) for fp in bare
        ], name


@pytest.mark.parametrize("alias", SCENES)
def test_tile_grids_identical_across_repeat_runs(alias):
    """Per-tile sums absorbed in tile-schedule order carry no
    scheduling noise: no wall-clock exclusion at all."""
    _, one = observed_run("tile_profiler", alias)
    _, again = with_tile_profiler(CONFIG, scene_frames(alias))
    assert one.as_dict() == again.as_dict()


def test_tile_grids_deterministic_across_repeat_runs():
    _, cached = observed_run("tile_profiler", "cap")
    _, again = with_tile_profiler(CONFIG, scene_frames("cap"))
    assert again.as_dict() == cached.as_dict()


@pytest.mark.parametrize("alias", SCENES)
def test_tile_cycles_sum_to_rbcd_stage_cycles(alias):
    """The cycles grid is an exact spatial decomposition: summed over
    tiles it reproduces the RBCD stage's cycles as the counters hold
    them, the ZEB insertions (one cycle per fragment the unit received)
    plus the Z-Overlap cycles."""
    observed, profiler = observed_run("tile_profiler", alias)
    counted = sum(
        fp["stats"]["rbcd_fragments_in"] + fp["stats"]["rbcd_cycles"]
        for fp in observed
    )
    assert counted > 0
    assert sum(profiler.grid("cycles")) == pytest.approx(counted)


@pytest.mark.parametrize("alias", SCENES)
def test_tile_energy_sums_to_dynamic_rbcd_energy(alias):
    """The energy grid reproduces the dynamic (non-static) RBCD joules:
    static leakage accrues with time, not per tile, and is excluded."""
    observed, profiler = observed_run("tile_profiler", alias)
    dynamic = sum(
        fp["energy"]["rbcd"]["insertion_j"]
        + fp["energy"]["rbcd"]["overlap_j"]
        + fp["energy"]["rbcd"]["output_j"]
        for fp in observed
    )
    assert sum(profiler.grid("energy_j")) == pytest.approx(dynamic)


def _comparable(records):
    """Ring contents minus wall clock and the global interleave counter
    (log volume may differ across configs; span/snapshot payloads must
    not)."""
    return [
        {k: v for k, v in record.items() if k != "seq"}
        for record in deterministic_events(records)
    ]


@pytest.mark.parametrize("alias", SCENES)
def test_ring_contents_identical_across_repeat_runs(alias):
    one = observed_run("flight_recorder", alias)[1].document()
    again = with_flight_recorder(CONFIG, scene_frames(alias))[1].document()
    one, again = one["streams"]["default"], again["streams"]["default"]
    assert _comparable(one["spans"]) == _comparable(again["spans"])
    assert _comparable(one["snapshots"]) == _comparable(again["snapshots"])
    assert _comparable(one["alerts"]) == _comparable(again["alerts"])
    assert one["counters"] == again["counters"]


def test_ring_contents_deterministic_across_repeat_runs():
    """Two identical recorded runs produce identical ring contents —
    including the sequence numbers (the full deterministic view)."""
    rings = []
    for _ in range(2):
        _, recorder = with_flight_recorder(
            CONFIG, scene_frames("crazy"), capture_logs=False
        )
        stream = recorder.document()["streams"]["default"]
        rings.append({
            ring: deterministic_events(stream[ring])
            for ring in ("spans", "snapshots", "alerts")
        } | {"counters": stream["counters"]})
    assert rings[0] == rings[1]


@pytest.mark.parametrize("backend", KERNEL_SETS)
@pytest.mark.parametrize("frames", STREAMS)
def test_kernel_backend_matrix_under_observation(backend, frames, request):
    """Each kernel set × stream length reproduces the scalar oracles'
    fingerprints with a monitor attached."""
    stream = scene_frames("cap")[:frames]
    use_kernels(request, backend)
    got = render(CONFIG, stream, observers=[LiveMonitor(window=8)])
    use_kernels(request, "reference")
    assert got == render(CONFIG, stream, observers=[LiveMonitor(window=8)])


# The hybrid system threads its tracer and observers into its own RBCD
# system; neither changes any answer.


def hybrid_detect(**observability):
    workload = workload_by_alias("cap", detail=1)
    scene = workload.scene
    objects = [
        (scene.object_id(obj.name), obj.mesh, obj.animator.transform(1.0))
        for obj in scene.objects
        if obj.collisionable
    ]
    with HybridCDSystem(resolution=(160, 96), **observability) as system:
        result = system.detect(objects, scene.camera_at(1.0))
    return result.pairs, result.rbcd_pairs, result.software_pairs, (
        result.offscreen_ids
    )


def test_hybrid_tracing_changes_nothing():
    tracer = Tracer()
    assert hybrid_detect(tracer=tracer) == hybrid_detect()
    assert tracer.by_name("hybrid.classify")
    assert tracer.by_name("hybrid.software")


def test_hybrid_monitoring_changes_nothing():
    monitor = LiveMonitor(window=8)
    assert hybrid_detect(observers=[monitor]) == hybrid_detect()
    assert monitor.frames == 1  # the RBCD pass fed the monitor
