"""Property tests for the clipper and viewport mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import Mat4
from repro.gpu.assembly import _clip_polygons, assemble
from repro.gpu.commands import CullMode, DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.shading import shade_draws
from repro.gpu.stats import GPUStats

CFG = GPUConfig().with_screen(80, 80)
PROJ = Mat4.perspective(math.radians(70), 1.0, 0.5, 40.0)

coord = st.floats(min_value=-30, max_value=30, allow_nan=False)


def clip_one(poly) -> np.ndarray:
    """Clip one (3, 4) triangle through the batched clipper as a
    one-row batch; returns the (M, 4) polygon."""
    out, count = _clip_polygons(np.asarray(poly, dtype=np.float64)[None])
    return out[0, : count[0]]


@st.composite
def random_triangle(draw):
    verts = [[draw(coord), draw(coord), draw(coord)] for _ in range(3)]
    return verts


class TestClipperProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_triangle())
    def test_output_inside_frustum(self, verts):
        mesh = TriangleMesh(np.array(verts), np.array([[0, 1, 2]]))
        frame = Frame(
            draws=(DrawCommand(mesh, Mat4.identity(), cull_mode=CullMode.NONE),),
            view=Mat4.identity(),
            projection=PROJ,
        )
        stats = GPUStats()
        soup = assemble(shade_draws(frame, CFG, stats), CFG, stats)
        if soup.count == 0:
            return
        # Every surviving vertex maps inside the viewport and depth range
        # (tiny epsilon for the float interpolation at plane crossings).
        assert soup.xy[:, :, 0].min() >= -1e-6
        assert soup.xy[:, :, 0].max() <= CFG.screen_width + 1e-6
        assert soup.xy[:, :, 1].min() >= -1e-6
        assert soup.xy[:, :, 1].max() <= CFG.screen_height + 1e-6
        assert soup.z.min() >= -1e-6
        assert soup.z.max() <= 1.0 + 1e-6
        assert np.isfinite(soup.xy).all()

    @settings(max_examples=80, deadline=None)
    @given(random_triangle())
    def test_conservation_of_triangles(self, verts):
        """Every input face is accounted for: kept, clipped into a fan,
        culled, tagged, or dropped as degenerate."""
        mesh = TriangleMesh(np.array(verts), np.array([[0, 1, 2]]))
        frame = Frame(
            draws=(DrawCommand(mesh, Mat4.identity(), cull_mode=CullMode.NONE),),
            view=Mat4.identity(),
            projection=PROJ,
        )
        stats = GPUStats()
        soup = assemble(shade_draws(frame, CFG, stats), CFG, stats)
        assert stats.triangles_assembled == 1
        accounted = (
            stats.triangles_frustum_culled
            + stats.triangles_degenerate
            + stats.triangles_face_culled
        )
        # Either the face left the pipeline, or it produced >= 1 output.
        assert (accounted >= 1) or soup.count >= 1

    def test_clip_fully_inside_polygon_unchanged(self):
        poly = np.array(
            [[0.1, 0.1, 0.0, 1.0], [0.3, 0.1, 0.0, 1.0], [0.2, 0.4, 0.0, 1.0]]
        )
        out = clip_one(poly)
        assert out.shape[0] == 3
        assert np.allclose(sorted(out[:, 0]), sorted(poly[:, 0]))

    def test_clip_fully_outside_empty(self):
        poly = np.array(
            [[5.0, 0.0, 0.0, 1.0], [6.0, 0.0, 0.0, 1.0], [5.5, 1.0, 0.0, 1.0]]
        )
        assert clip_one(poly).shape[0] == 0

    def test_clip_crossing_grows_vertex_count(self):
        # A triangle poking through one frustum corner gains vertices.
        poly = np.array(
            [[0.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0]]
        )
        out = clip_one(poly)
        assert out.shape[0] >= 4
        assert (np.abs(out[:, 0]) <= out[:, 3] + 1e-9).all()
        assert (np.abs(out[:, 1]) <= out[:, 3] + 1e-9).all()

    @settings(max_examples=60, deadline=None)
    @given(random_triangle())
    def test_clipped_polygon_within_planes(self, verts):
        from repro.geometry.vec import transform_points_homogeneous

        hom = transform_points_homogeneous(PROJ, np.array(verts))
        out = clip_one(hom)
        for v in out:
            w = v[3]
            assert w >= -1e-9
            for axis in range(3):
                assert abs(v[axis]) <= w + 1e-6 * max(1.0, w)
