"""The frame scratch contract: what a frame returns never aliases it.

A frame's internal arrays live in per-thread grow-only scratch
(:mod:`repro.gpu.scratch`).  These tests pin the contract: results and
what observers are handed stay byte-equal to a fresh render after later
frames run, share no memory across frames, and neither threads nor
frames nested in an observer hook disturb one another.  A mutant that
leaks the scratch-backed depth buffer, and one that lets nested frames
reuse the outer frame's buffers, must fail them.
"""

import dataclasses
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import RBCDSystem
from repro.gpu import pipeline, scratch
from repro.gpu.config import GPUConfig
from repro.gpu.earlyz import DepthTestResult, depth_test
from repro.gpu.pipeline import GPU
from repro.observability.observer import FrameObserver
from repro.observability.provenance import ProvenanceRecorder
from repro.scenes.benchmarks import workload_by_alias

CONFIG = GPUConfig().with_screen(160, 96)


def scene_frames(alias, count, config=CONFIG):
    workload = workload_by_alias(alias, 1)
    times = workload.times(8)[:count]
    return [workload.scene.frame_at(float(t), config) for t in times]


def arrays(obj, seen=None):
    """Every ndarray reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = list(vars(obj).values())
    else:
        return []
    found = []
    for child in children:
        found.extend(arrays(child, seen))
    return found


def fingerprint(obj, seen=None):
    """A canonical, byte-exact description of ``obj``'s contents."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (bool, int, float, str, bytes, type(None))):
        return obj
    if id(obj) in seen:
        return ("seen", type(obj).__name__)
    seen.add(id(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__, tuple(
            (f.name, fingerprint(getattr(obj, f.name), seen))
            for f in dataclasses.fields(obj)
        ))
    if isinstance(obj, dict):
        return ("dict", tuple(
            (fingerprint(k, seen), fingerprint(v, seen))
            for k, v in obj.items()
        ))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(
            fingerprint(v, seen) for v in obj
        ))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(fingerprint(v, seen)) for v in obj)))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, tuple(
            (k, fingerprint(v, seen)) for k, v in sorted(vars(obj).items())
        ))
    return repr(obj)


def render_kept(frame):
    """A fresh GPU with a provenance recorder, keeping every output."""
    recorder = ProvenanceRecorder()
    gpu = GPU(CONFIG, observers=[recorder])
    result = gpu.render_frame(frame, keep_tile_timing=True, keep_fragments=True)
    return result, list(recorder.records)


def assert_consecutive_frames_independent():
    """Two frames on one GPU: the first's outputs (and its evidence)
    survive the second unchanged and share no memory with it."""
    first_frame, second_frame = scene_frames("cap", 1) + scene_frames(
        "temple", 1
    )
    expected = fingerprint(render_kept(first_frame))

    recorder = ProvenanceRecorder()
    gpu = GPU(CONFIG, observers=[recorder])
    first = gpu.render_frame(
        first_frame, keep_tile_timing=True, keep_fragments=True
    )
    first_records = list(recorder.records)
    second = gpu.render_frame(
        second_frame, keep_tile_timing=True, keep_fragments=True
    )
    second_records = recorder.records[len(first_records):]

    assert fingerprint((first, first_records)) == expected
    for a in arrays((first, first_records)):
        for b in arrays((second, second_records)):
            assert not np.shares_memory(a, b)


def test_consecutive_frames_are_independent():
    assert_consecutive_frames_independent()


def test_consecutive_detections_are_independent():
    frames = scene_frames("cap", 1) + scene_frames("sleepy", 1)
    expected = fingerprint(RBCDSystem(config=CONFIG).detect_frame(frames[0]))
    system = RBCDSystem(config=CONFIG)
    first = system.detect_frame(frames[0])
    second = system.detect_frame(frames[1])
    assert fingerprint(first) == expected
    for a in arrays(first):
        for b in arrays(second):
            assert not np.shares_memory(a, b)


def test_a_leaked_scratch_z_buffer_fails_the_check(monkeypatch):
    """Mutant: early-Z hands back its depth buffer in scratch."""

    def leaky_depth_test(frags, config, stats):
        depth = depth_test(frags, config, stats)
        z_buffer = scratch.empty(
            "test.z_buffer", depth.z_buffer.size, np.float64
        ).reshape(depth.z_buffer.shape)
        z_buffer[...] = depth.z_buffer
        return DepthTestResult(depth.passed, z_buffer, depth.winner)

    monkeypatch.setattr(pipeline, "depth_test", leaky_depth_test)
    with pytest.raises(AssertionError):
        assert_consecutive_frames_independent()


def test_threads_render_as_if_alone():
    """Two threads, two systems, interleaved frames of two scenes."""
    scenes = {alias: scene_frames(alias, 3) for alias in ("cap", "temple")}
    expected = {
        alias: [fingerprint(RBCDSystem(config=CONFIG).detect_frame(f))
                for f in frames]
        for alias, frames in scenes.items()
    }
    got = {alias: [] for alias in scenes}
    errors = []
    barrier = threading.Barrier(len(scenes), timeout=60)

    def run(alias):
        try:
            system = RBCDSystem(config=CONFIG)
            for frame in scenes[alias]:
                barrier.wait()
                got[alias].append(fingerprint(system.detect_frame(frame)))
        except BaseException as exc:  # reported below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(a,)) for a in scenes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == expected


class FrameInHook(FrameObserver):
    """Renders another frame from inside every ``record_tiles``."""

    def __init__(self, frame, config):
        self.frame = frame
        self.config = config
        self.results = []

    def record_tiles(self, result) -> None:
        gpu = GPU(self.config)
        self.results.append(
            gpu.render_frame(self.frame, keep_fragments=True)
        )


def assert_nested_frame_leaves_outer_intact():
    outer_frame = scene_frames("cap", 1)[0]
    inner_config = GPUConfig().with_screen(64, 32)
    inner_frame = scene_frames("temple", 1, inner_config)[0]
    expected_outer = fingerprint(
        GPU(CONFIG).render_frame(outer_frame, keep_fragments=True)
    )
    expected_inner = fingerprint(
        GPU(inner_config).render_frame(inner_frame, keep_fragments=True)
    )

    hook = FrameInHook(inner_frame, inner_config)
    outer = GPU(CONFIG, observers=[hook]).render_frame(
        outer_frame, keep_fragments=True
    )
    assert hook.results
    assert fingerprint(outer) == expected_outer
    assert all(fingerprint(r) == expected_inner for r in hook.results)


def test_a_frame_rendered_in_an_observer_hook_leaves_the_outer_intact():
    assert_nested_frame_leaves_outer_intact()


def test_nested_frames_reusing_scratch_fail_the_check(monkeypatch):
    """Mutant: a nested frame takes the outer frame's buffers."""

    @contextmanager
    def flat_frame():
        depth = getattr(scratch._local, "depth", 0)
        scratch._local.depth = 1
        try:
            yield
        finally:
            scratch._local.depth = depth

    monkeypatch.setattr(scratch, "frame", flat_frame)
    with pytest.raises(AssertionError):
        assert_nested_frame_leaves_outer_intact()


class TestScratch:
    def test_outside_a_frame_allocates_fresh(self):
        a = scratch.empty("test.slot", 8, np.int64)
        b = scratch.empty("test.slot", 8, np.int64)
        assert not np.shares_memory(a, b)

    def test_a_frame_reuses_a_slot_and_grows_it(self):
        with scratch.frame():
            a = scratch.empty("test.slot", 8, np.int64)
            b = scratch.empty("test.slot", 4, np.float64)
            assert np.shares_memory(a, b)
            c = scratch.empty("test.slot", 1 << 12, np.int64)
            assert c.shape == (1 << 12,) and c.dtype == np.int64
            assert np.shares_memory(c, scratch.empty("test.slot", 1, np.int8))

    def test_nested_frames_allocate_fresh(self):
        with scratch.frame():
            outer = scratch.empty("test.slot", 8, np.int64)
            with scratch.frame():
                inner = scratch.empty("test.slot", 8, np.int64)
            assert not np.shares_memory(outer, inner)
            again = scratch.empty("test.slot", 8, np.int64)
            assert np.shares_memory(outer, again)

    def test_threads_never_share_a_slot(self):
        views = []

        def take():
            with scratch.frame():
                views.append(scratch.empty("test.slot", 8, np.int64))

        threads = [threading.Thread(target=take) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not np.shares_memory(*views)


def test_warm_frame_allocates_little_beyond_its_result():
    """A fixed guard on a frame's transient allocation.

    One 480x288 ``cap`` frame, after one warm-up frame of the same
    input: tracemalloc's peak during ``detect_frame``, less what the
    result still holds.  With every frame-sized array allocated fresh
    this read 16.5 MiB; the bound is half of that, and scratch reads
    ~2.1 MiB.  Unlike fault counts, this does not depend on the host.
    """
    config = GPUConfig().with_screen(480, 288)
    frame = scene_frames("cap", 1, config)[0]
    system = RBCDSystem(config=config)
    system.detect_frame(frame)
    tracemalloc.start()
    try:
        result = system.detect_frame(frame)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stats.fragments_produced > 100_000
    assert (peak - retained) / 2**20 <= 16.5 / 2
