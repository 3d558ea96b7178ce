"""Vertex stage tests."""

import math

import numpy as np
import pytest

from repro.geometry.primitives import make_box
from repro.geometry.vec import Mat4, Vec3
from repro.gpu.caches import Cache
from repro.gpu.commands import DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.shading import shade_draws, vertex_stage_cycles
from repro.gpu.stats import GPUStats

CFG = GPUConfig().with_screen(64, 64)


def frame_of(draws) -> Frame:
    view = Mat4.look_at(Vec3(0, 0, 5), Vec3(0, 0, 0), Vec3(0, 1, 0))
    proj = Mat4.perspective(math.radians(60), 1.0, 0.1, 100.0)
    return Frame(draws=tuple(draws), view=view, projection=proj)


class TestTransforms:
    def test_clip_positions_match_mvp(self):
        model = Mat4.translation(Vec3(1, 0, 0))
        frame = frame_of([DrawCommand(make_box(), model)])
        shaded = shade_draws(frame, CFG, GPUStats())
        mvp = frame.projection @ frame.view @ model
        from repro.geometry.vec import transform_points_homogeneous

        expected = transform_points_homogeneous(mvp, make_box().vertices)
        assert np.array_equal(shaded[0].clip_positions, expected)

    def test_draw_indices_sequential(self):
        frame = frame_of([DrawCommand(make_box(), Mat4.identity())] * 3)
        shaded = shade_draws(frame, CFG, GPUStats())
        assert [s.draw_index for s in shaded] == [0, 1, 2]


class TestCounting:
    def test_vertex_counts(self):
        frame = frame_of([DrawCommand(make_box(), Mat4.identity())])
        stats = GPUStats()
        shade_draws(frame, CFG, stats)
        assert stats.vertices_shaded == 8
        assert stats.vertices_fetched == 36  # 12 faces x 3 indices
        assert stats.vertex_cache_accesses == 36

    def test_vertex_cache_reuse_within_draw(self):
        frame = frame_of([DrawCommand(make_box(), Mat4.identity())])
        stats = GPUStats()
        shade_draws(frame, CFG, stats)
        # 8 vertices x 32 B = 256 B = at most 4 cold-missed lines.
        assert stats.vertex_cache_misses <= 4

    def test_draws_do_not_alias_in_cache(self):
        # The stock 4 KB cache holds both draws' lines: had the second
        # draw aliased the first's buffer, it would hit on every line.
        misses = []
        for copies in (1, 2):
            stats = GPUStats()
            frame = frame_of([DrawCommand(make_box(), Mat4.identity())] * copies)
            shade_draws(frame, CFG, stats, Cache(CFG.vertex_cache))
            misses.append(stats.vertex_cache_misses)
        assert misses[0] > 0
        assert misses[1] == 2 * misses[0]

    def test_cycles_scale_with_vertices(self):
        stats1 = GPUStats()
        shade_draws(frame_of([DrawCommand(make_box(), Mat4.identity())]), CFG, stats1)
        stats2 = GPUStats()
        shade_draws(
            frame_of([DrawCommand(make_box(), Mat4.identity())] * 4), CFG, stats2
        )
        assert vertex_stage_cycles(stats2, CFG) > vertex_stage_cycles(stats1, CFG)

    def test_explicit_cache_accumulates(self):
        cache = Cache(CFG.vertex_cache)
        frame = frame_of([DrawCommand(make_box(), Mat4.identity())])
        shade_draws(frame, CFG, GPUStats(), cache)
        assert cache.accesses == 36
