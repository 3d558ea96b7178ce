"""Workload definitions and the measuring loop.

Every workload detects frames of the four Table-1 scenes (cap, crazy,
sleepy, temple).  Each scene contributes a grid of ``GRID_FRAMES``
frames evenly spaced over its 2 s animation; the committed reference
holds the expected outputs of every grid frame.  The seed only orders
the work: it shuffles the grid of each scene once per pass and the
scene order inside each round.  A round is one frame of every scene,
so stopping at any round boundary keeps the scene mix balanced.

The program is driven only through its public entry points:
``Scene.frame_at`` builds the inputs, ``RBCDSystem.detect_frame`` (bare
workloads) or ``CollisionService.submit``/``drain`` (serving workload)
detects them.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.checks import FrameOutput, agreement, load_reference, oracle_pairs
from perfbench.layers import SpanRecorder, layer_metrics, ratio

SCENES = ("cap", "crazy", "sleepy", "temple")
GRID_FRAMES = 8          # frames per scene, evenly spaced over 2 s
SETUP_REPEATS = 5        # setup_s is the median of this many set-ups
MIN_SAMPLES = 100        # so that >= 10 frame times lie beyond p90
MAX_TIMED_S = 120.0      # hard stop for a host far slower than expected
SERVE_WORKERS = 2


@dataclass(frozen=True)
class Spec:
    name: str
    width: int
    height: int
    detail: int
    # Share of frame host time in large-array numpy passes (rasterize,
    # early-Z, fragment shading, compute_tile) in the workload's traced
    # profile when the benchmark was defined; weights the HostProbe.
    array_share: float
    serve: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec("frames_geometry", 160, 96, 2, array_share=0.17),
        Spec("frames_raster", 480, 288, 1, array_share=0.57),
        Spec("serve_tenants", 160, 96, 1, array_share=0.34, serve=True),
    )
}


def gpu_config(spec: Spec):
    """Serial executor, vectorized kernels, tile cache off."""
    from repro.gpu.config import GPUConfig

    return (
        GPUConfig()
        .with_screen(spec.width, spec.height)
        .with_kernel_backend("vectorized")
        .with_tile_cache(False)
    )


def config_record(spec: Spec) -> dict:
    config = gpu_config(spec)
    return {
        "width": spec.width,
        "height": spec.height,
        "detail": spec.detail,
        "grid_frames": GRID_FRAMES,
        "kernel_backend": config.kernel_backend,
        "tile_cache": config.tile_cache_enabled,
    }


def rounds(seed: int):
    """Endless rounds of ``(scene, grid index)``, ordered by ``seed``."""
    rng = random.Random(seed)
    while True:
        orders = {a: rng.sample(range(GRID_FRAMES), GRID_FRAMES) for a in SCENES}
        for i in range(GRID_FRAMES):
            yield [(a, orders[a][i]) for a in rng.sample(SCENES, len(SCENES))]


@dataclass
class Outcome:
    """One attempted frame."""

    alias: str
    index: int
    output: FrameOutput | None
    seconds: float               # detect_frame, or submit -> resolved
    error: str | None = None
    counts: dict | None = None   # traced frames: per-layer counts
    queue_wait_s: float | None = None
    traced: bool = False
    speed: float = 1.0           # host-speed factor (see HostProbe)


class _Rig:
    """Scenes plus the system under test, built by one set-up."""

    def __init__(self, spec: Spec) -> None:
        from repro.scenes.benchmarks import workload_by_alias

        self.spec = spec
        self.config = gpu_config(spec)
        self.workloads = {a: workload_by_alias(a, spec.detail) for a in SCENES}
        self.times = {a: w.times(GRID_FRAMES) for a, w in self.workloads.items()}
        self.rejections = 0

    def frame(self, alias: str, index: int):
        scene = self.workloads[alias].scene
        return scene.frame_at(float(self.times[alias][index]), self.config)

    def warm_up(self) -> None:
        frames = [(a, 0) for a in SCENES]
        probe = HostProbe(self.spec.array_share)
        for outcome in self.run_round(frames, None, probe)[0]:
            if outcome.error is not None:
                raise RuntimeError(f"warm-up frame failed: {outcome.error}")


def _frame_trace(recorder, frame):
    if recorder is None:
        return None, None
    start, counts = recorder.frames.pop(id(frame))
    return start, counts


class BareRig(_Rig):
    """One ``RBCDSystem`` with no observers, shared by the four scenes."""

    def __init__(self, spec: Spec) -> None:
        super().__init__(spec)
        from repro.core import RBCDSystem

        self.system = RBCDSystem(config=self.config)
        self.warm_up()

    def run_round(self, frames, recorder, probe):
        """Detect ``frames`` one by one, probing host speed after each."""
        outcomes = []
        for alias, index in frames:
            frame = self.frame(alias, index)
            start = perf_counter()
            try:
                result = self.system.detect_frame(frame)
                error = None
            except Exception as exc:  # a failed frame is counted, not fatal
                error = repr(exc)
            seconds = perf_counter() - start
            speed = probe.speed()
            if recorder is not None:
                recorder.end_segment(speed)
            outcome = Outcome(alias, index, None, seconds, error, speed=speed)
            if error is None:
                outcome.output = FrameOutput.of(result)
                _, outcome.counts = _frame_trace(recorder, frame)
            outcomes.append(outcome)
        return outcomes, sum(o.seconds * o.speed for o in outcomes)

    def close(self) -> None:
        self.system.close()


class ServeRig(_Rig):
    """``CollisionService`` with one tenant per scene, stock observers.

    Closed loop: submit one frame per tenant, ``drain()``, wait on the
    futures, repeat — four clients with at most one frame outstanding.
    """

    def __init__(self, spec: Spec) -> None:
        super().__init__(spec)
        from repro.observability.flightrecorder import FlightRecorder
        from repro.observability.live import default_rules
        from repro.serve import CollisionService

        self.recorder = FlightRecorder()
        self.service = CollisionService(
            workers=SERVE_WORKERS,
            base_config=self.config,
            rules=lambda tenant: default_rules(max_activity_ratio=None),
            recorder=self.recorder,
        )
        try:
            for alias in SCENES:
                self.service.register(alias)
            self.warm_up()
        except BaseException:
            self.close()  # stop the pool workers the warm-up started
            raise

    def run_round(self, frames, recorder, probe):
        """One closed-loop iteration; host speed is probed after it."""
        from repro.serve import AdmissionError

        round_start = perf_counter()
        outcomes, pending = [], []
        for alias, index in frames:
            frame = self.frame(alias, index)
            start = perf_counter()
            try:
                future = self.service.submit(alias, frame)
            except AdmissionError as exc:
                self.rejections += 1
                seconds = perf_counter() - start
                outcomes.append(Outcome(alias, index, None, seconds, repr(exc)))
                continue
            done: list[float] = []
            future.add_done_callback(lambda _f, done=done: done.append(perf_counter()))
            pending.append((alias, index, frame, start, future, done))
        self.service.drain()
        for alias, index, frame, start, future, done in pending:
            error = future.exception(timeout=60)
            if error is not None:
                seconds = done[0] - start
                outcomes.append(Outcome(alias, index, None, seconds, repr(error)))
                continue
            detect_start, counts = _frame_trace(recorder, frame)
            outcomes.append(
                Outcome(
                    alias, index, FrameOutput.of(future.result().result),
                    done[0] - start, counts=counts,
                    queue_wait_s=(
                        None if detect_start is None else detect_start - start
                    ),
                )
            )
        round_s = perf_counter() - round_start
        speed = probe.speed()
        if recorder is not None:
            recorder.end_segment(speed)
        for outcome in outcomes:
            outcome.speed = speed
        return outcomes, round_s * speed

    def close(self) -> None:
        self.service.close()
        self.recorder.close()


def make_rig(spec: Spec) -> _Rig:
    return ServeRig(spec) if spec.serve else BareRig(spec)


class HostProbe:
    """Fixed pieces of harness work, timed between detections.

    The host alternates, for seconds at a time, between speeds up to
    1.6x apart, which no run length averages away, and the two kinds of
    work the simulator spends its host time on slow down by different
    amounts.  So the probe times one piece of each kind: many numpy
    calls on tiny arrays (a walk over a small LRU tag table plus
    small-array utilities) and one pass over 100k-element arrays.  The
    program under test never runs inside it.  ``speed`` scales a
    measured host time to the speed at which the two pieces take
    ``REFERENCE_S``, weighting the array piece by the workload's
    ``array_share``.
    """

    REFERENCE_S = (0.005, 0.003)   # (tiny-array calls, array pass)

    def __init__(self, array_share: float) -> None:
        import numpy as np

        self._np = np
        self._share = array_share
        rng = np.random.default_rng(0)
        self._small = rng.integers(0, 64, 8)
        self._array = rng.random(100_000)
        self._last = self._time()

    def _time(self) -> tuple[float, float]:
        np = self._np
        start = perf_counter()
        tags = np.full((64, 8), -1, dtype=np.int64)
        stamps = np.zeros((64, 8), dtype=np.int64)
        for clock, line in enumerate(range(1200), start=1):
            row = line % 64
            hit = np.nonzero(tags[row] == line)[0]
            if hit.size:
                stamps[row, hit[0]] = clock
            else:
                victim = int(stamps[row].argmin())
                tags[row, victim] = line
                stamps[row, victim] = clock
        small = self._small
        for i in range(200):
            np.unique(small)
            np.searchsorted(small, i)
            np.cumsum(np.concatenate([small, small]))
        middle = perf_counter()
        x = self._array
        y = np.where(x > 0.3, x * 1.5, x - 0.2)
        np.argsort(y[:20_000])
        np.bincount((y * 10).astype(np.int64) % 50)
        return middle - start, perf_counter() - middle

    def speed(self) -> float:
        """Factor for the interval since the previous call, from the
        mean of the probes that bracket it."""
        now = self._time()
        (small_ref, array_ref), share = self.REFERENCE_S, self._share
        small = (self._last[0] + now[0]) / 2.0
        array = (self._last[1] + now[1]) / 2.0
        self._last = now
        return (small_ref / small) ** (1.0 - share) * (array_ref / array) ** share


@dataclass
class _Round:
    traced: bool
    seconds: float               # host time at reference speed
    frames: int


@dataclass
class RunRecord:
    outcomes: list[Outcome] = field(default_factory=list)
    rounds: list[_Round] = field(default_factory=list)
    wall_s: float = 0.0


def _set_up(spec: Spec, setups: int, probe: HostProbe):
    """Build the rig ``setups`` times; returns the last rig and each
    set-up's time at reference host speed."""
    times, rig = [], None
    for _ in range(setups):
        if rig is not None:
            rig.close()
        gc.collect()
        probe.speed()
        start = perf_counter()
        rig = make_rig(spec)
        seconds = perf_counter() - start
        times.append(seconds * probe.speed())
    return rig, times


def _timed_loop(rig, seed, seconds, recorder, max_frames, probe) -> RunRecord:
    """Detect rounds until the time is up, at a round boundary.

    Untraced: stop once ``seconds`` have passed, the first pass covered
    every grid frame and ``MIN_SAMPLES`` frames were attempted.  Traced:
    the first pass is traced in full (the per-layer counts come from
    it); later rounds alternate untraced/traced, which gives the tracing
    overhead on the same frame mix.
    """
    record = RunRecord()
    schedule = rounds(seed)
    gc.collect()
    probe.speed()
    start = perf_counter()
    r = 0
    while True:
        frames = next(schedule)
        if max_frames is not None:
            frames = frames[: max_frames - len(record.outcomes)]
        traced = recorder is not None and (r < GRID_FRAMES or r % 2 == 1)
        if traced:
            recorder.install()
        try:
            outcomes, round_s = rig.run_round(
                frames, recorder if traced else None, probe
            )
        finally:
            if traced:
                recorder.restore()
        completed = sum(o.error is None for o in outcomes)
        record.rounds.append(_Round(traced, round_s, completed))
        for outcome in outcomes:
            outcome.traced = traced
        record.outcomes.extend(outcomes)
        r += 1
        elapsed = perf_counter() - start
        if max_frames is not None:
            if len(record.outcomes) >= max_frames:
                break
            continue
        if elapsed >= MAX_TIMED_S:
            break
        if recorder is None:
            done = len(record.outcomes) >= MIN_SAMPLES
        else:
            done = r >= GRID_FRAMES + 2
        if done and r >= GRID_FRAMES and elapsed >= seconds:
            break
    record.wall_s = perf_counter() - start
    return record


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return _mean(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rate(rounds_: list[_Round]) -> float:
    """Median per-round rate of completed frames, at reference speed."""
    return _median(r.frames / r.seconds for r in rounds_ if r.frames)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    max_frames: int | None = None,
    setups: int = SETUP_REPEATS,
    reference=None,
) -> dict:
    """Run one workload; returns the result document (see run.py).

    Every host time in the metrics is scaled to reference host speed by
    :class:`HostProbe`; the document also keeps the raw times.
    """
    spec = SPECS[workload]
    if reference is None:
        reference = load_reference(workload)
    probe = HostProbe(spec.array_share)
    rig, setup_s = _set_up(spec, setups, probe)
    recorder = SpanRecorder() if trace else None
    try:
        record = _timed_loop(rig, seed, seconds, recorder, max_frames, probe)
    finally:
        rig.close()

    # -- reference check: every attempted frame, traced or not ---------------
    failed = 0
    for outcome in record.outcomes:
        expected = reference[outcome.alias][outcome.index]
        if outcome.error is None and outcome.output != expected:
            outcome.error = "output differs from the committed reference"
        failed += outcome.error is not None
    attempted = len(record.outcomes)
    ok = [o for o in record.outcomes if o.error is None]

    # -- first occurrence of every grid frame: the deterministic metrics -----
    grid: dict[tuple[str, int], Outcome] = {}
    for outcome in ok:
        grid.setdefault((outcome.alias, outcome.index), outcome)
    keys = sorted(grid)
    exact = []
    for alias in SCENES:
        times = [rig.times[alias][i] for a, i in keys if a == alias]
        exact.extend(oracle_pairs(rig.workloads[alias], times))
    recall, precision = agreement([set(grid[k].output.pairs) for k in keys], exact)

    frames: dict[str, list] = {}
    for o in ok:
        frames.setdefault(o.alias, []).append(
            {"index": o.index, "ms": o.seconds * 1000.0, "speed": o.speed,
             "traced": o.traced}
        )
    document = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": config_record(spec),
        "setup_s": setup_s,
        "wall_s": record.wall_s,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted({o.error for o in record.outcomes if o.error}),
        "grid_frames_covered": len(keys),
        "rejections": rig.rejections,
        "rounds": [vars(r) for r in record.rounds],
        "frames": frames,
    }
    if recorder is None:
        # Host times at reference speed, per scene.  The pooled median
        # of a four-scene mix sits in the gap between two scenes' time
        # clusters and jumps between them; the mean of the per-scene
        # medians is the steady centre.
        by_scene: dict[str, list[float]] = {}
        for o in ok:
            by_scene.setdefault(o.alias, []).append(o.seconds * o.speed * 1000.0)
        pooled = [ms for times in by_scene.values() for ms in times]
        outputs = [grid[k].output for k in keys]
        frames_per_s = _rate(record.rounds)
        document["samples"] = len(pooled)
        metrics = {
            "frames_per_s": frames_per_s,
            "frame_ms_p50": _mean(_median(t) for t in by_scene.values()),
            "frame_ms_p90": _p90(pooled),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
            "sim_frags_per_s": (
                _mean(o.fragments for o in outputs) * frames_per_s
            ),
            "sim_cycles_per_frame": _mean(o.gpu_cycles for o in outputs),
            "sim_joules_per_frame": _mean(o.joules for o in outputs),
            "pair_recall": recall,
            "pair_precision": precision,
            "frames_ok_ratio": ratio(attempted - failed, attempted),
        }
    else:
        grid_counts = [grid[k].counts for k in keys if grid[k].traced]
        metrics = layer_metrics(recorder, grid_counts, rig.rejections)
        waits = [
            o.queue_wait_s * o.speed for o in ok if o.queue_wait_s is not None
        ]
        metrics["serve.queue_wait_ms"] = _mean(waits) * 1000.0
        later = record.rounds[GRID_FRAMES:]
        metrics["trace.overhead_ratio"] = ratio(
            _rate([r for r in later if not r.traced]),
            _rate([r for r in later if r.traced]),
        )
        metrics["failed_ratio"] = ratio(failed, attempted)
        document["spans"] = recorder.to_document()
    document["metrics"] = metrics
    return document
