"""Differential tests: the frame-batched vertex stage against the per-draw oracle.

``tests/gpu/vertex_oracle.py`` keeps the loop that sent each draw's
indices to the vertex cache as its own call.  The production
``shade_draws`` sends the frame's concatenated per-draw streams as one
call, so the cache sees the same access sequence and the two must agree
byte for byte: every draw's clip positions, the four vertex counters,
and the cache's accesses, misses and resident lines after the frame,
also when one cache is carried across two frames.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import repro.gpu.shading as shading
from repro.geometry.mesh import TriangleMesh
from repro.geometry.primitives import make_box, make_torus, make_uv_sphere
from repro.geometry.vec import Mat4, Vec3
from repro.gpu.caches import Cache
from repro.gpu.commands import DrawCommand, Frame
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.stats import GPUStats
from repro.scenes.benchmarks import workload_by_alias
from tests.gpu.vertex_oracle import shade_draws as oracle_shade

COUNTERS = (
    "vertices_fetched",
    "vertices_shaded",
    "vertex_cache_accesses",
    "vertex_cache_misses",
)
VERTEX_CACHES = (
    GPUConfig().vertex_cache,               # the stock 4 KB, 2-way cache
    CacheConfig("vertex", 512, 64, 2, 1),   # 4 sets: draws evict each other
    CacheConfig("vertex", 256, 64, 1, 1),   # direct-mapped
    CacheConfig("vertex", 1024, 64, 4, 1),  # the MRU-walk branch
)
# Vertex counts 8, 3 and 5 are not line-aligned (32 B per vertex).
MESHES = (
    make_box(),
    make_uv_sphere(rings=4, segments=6),
    make_torus(),
    TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]),
    TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[0, 1, 2], [1, 3, 2], [0, 4, 1], [4, 3, 1]],
    ),
)
# The two frame workloads of the repository benchmark.
WORKLOADS = ((160, 96, 2), (480, 288, 1))
SCENES = ("cap", "crazy", "sleepy", "temple")
GRID_FRAMES = 8


def camera(aspect: float = 1.0) -> tuple[Mat4, Mat4]:
    view = Mat4.look_at(Vec3(0.3, 1.0, 6.0), Vec3(0, 0, 0), Vec3(0, 1, 0))
    return view, Mat4.perspective(math.radians(60), aspect, 0.1, 100.0)


def run(shade, frames, config: GPUConfig, warm=()) -> tuple:
    """Shade ``frames`` in order through one cache: per-frame outputs."""
    cache = Cache(config.vertex_cache)
    cache.access_many(np.array(warm, dtype=np.int64))
    cache.reset_stats()
    outputs = []
    for frame in frames:
        stats = GPUStats()
        shaded = shade(frame, config, stats, cache)
        outputs.append((
            [(s.draw_index, id(s.draw)) for s in shaded],
            [(s.clip_positions.dtype, s.clip_positions.shape, s.clip_positions.tobytes())
             for s in shaded],
            {c: getattr(stats, c) for c in COUNTERS},
            (cache.accesses, cache.misses, cache.resident_lines()),
        ))
    return outputs


def differences(shade, frames, config: GPUConfig, warm=()) -> list[str]:
    """What ``shade`` gets wrong against the oracle, frame by frame."""
    got = run(shade, frames, config, warm)
    want = run(oracle_shade, frames, config, warm)
    fields = ("draws", "clip_positions", "counters", "cache")
    return [
        f"frame {i}: {field}"
        for i, (g, w) in enumerate(zip(got, want))
        for field, a, b in zip(fields, g, w)
        if a != b
    ]


def assert_matches_oracle(frames, config: GPUConfig, warm=()) -> None:
    assert differences(shading.shade_draws, frames, config, warm) == []


# -- random frames -----------------------------------------------------------

@st.composite
def models(draw) -> Mat4:
    t = Vec3(*(draw(st.floats(-3, 3)) for _ in range(3)))
    angle = draw(st.floats(-math.pi, math.pi))
    s = draw(st.floats(0.1, 3.0))
    return Mat4.trs(t, Mat4.rotation_axis(Vec3(0.3, 1.0, 0.2), angle), s)


@st.composite
def frames(draw) -> Frame:
    """A frame over the mesh pool; meshes repeat, ids stay unique."""
    meshes = draw(st.lists(st.sampled_from(MESHES), max_size=8), label="meshes")
    draws = [
        DrawCommand(mesh, draw(models()), object_id=i if draw(st.booleans()) else None)
        for i, mesh in enumerate(meshes)
    ]
    view, projection = camera(draw(st.floats(0.5, 2.0)))
    return Frame(draws=tuple(draws), view=view, projection=projection)


@st.composite
def cases(draw):
    config = replace(GPUConfig(), vertex_cache=draw(st.sampled_from(VERTEX_CACHES)))
    shown = draw(st.lists(frames(), min_size=1, max_size=2), label="frames")
    warm = draw(st.lists(st.integers(0, 1 << 14), max_size=20), label="warm")
    return shown, config, warm


@settings(max_examples=80, deadline=None)
@given(cases())
def test_batched_vertex_stage_matches_per_draw_oracle(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize("width,height,detail", WORKLOADS)
@pytest.mark.parametrize("alias", SCENES)
def test_benchmark_scenes_match_oracle(alias, width, height, detail):
    config = GPUConfig().with_screen(width, height)
    workload = workload_by_alias(alias, detail)
    shown = [
        workload.scene.frame_at(float(t), config)
        for t in workload.times(GRID_FRAMES)
    ]
    for frame in shown:
        assert_matches_oracle([frame], config)
    # One cache carried across consecutive frames.
    assert_matches_oracle(shown[:2], config)
    assert_matches_oracle(shown[-2:], config)


def test_empty_frame_makes_no_cache_call():
    config = GPUConfig()
    cache = Cache(config.vertex_cache)
    calls = []
    cache.access_many = lambda addresses: calls.append(addresses)
    stats = GPUStats()
    view, projection = camera()
    assert shading.shade_draws(Frame((), view, projection), config, stats, cache) == []
    assert calls == []
    assert {c: getattr(stats, c) for c in COUNTERS} == dict.fromkeys(COUNTERS, 0)


def test_one_cache_call_per_frame():
    config = GPUConfig()
    cache = Cache(config.vertex_cache)
    calls = []
    access_many = cache.access_many
    cache.access_many = lambda a: calls.append(a) or access_many(a)
    view, projection = camera()
    draws = [DrawCommand(mesh, Mat4.identity()) for mesh in MESHES * 2]
    shading.shade_draws(Frame(draws, view, projection), config, GPUStats(), cache)
    assert len(calls) == 1
    assert calls[0].size == sum(d.mesh.faces.size for d in draws)


# -- mutants the suite must catch --------------------------------------------

def mutant(old: str, new: str):
    """``shade_draws`` from a copy of its source with one edit, run in
    the production module's globals."""
    source = inspect.getsource(shading.shade_draws)
    assert source.count(old) == 1, old
    namespace = dict(vars(shading))
    exec(compile(source.replace(old, new), "shading_mutant", "exec"), namespace)
    return namespace["shade_draws"]


def caught(mutant_shade):
    """A case the mutant gets wrong, found by hypothesis."""
    return find(
        cases(),
        lambda case: differences(mutant_shade, *case) != [],
        settings=settings(
            max_examples=2000, database=None, derandomize=True,
            phases=[Phase.generate],
        ),
    )


def test_suite_catches_unaligned_draws():
    caught(mutant("            base_address = -(-base_address // 64) * 64\n", ""))


def test_suite_catches_cache_flushed_between_draws():
    caught(mutant(
        "vertex_cache.access_many(addresses)",
        "sum(vertex_cache.flush() or vertex_cache.access_many(s) for s in streams)",
    ))


def test_suite_catches_draws_in_reverse_order():
    caught(mutant("np.concatenate(streams)", "np.concatenate(streams[::-1])"))
