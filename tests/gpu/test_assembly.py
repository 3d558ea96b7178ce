"""Primitive assembly: clipping, viewport mapping, face culling."""

import numpy as np
import pytest

from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import Mat4, Vec3
from repro.gpu.assembly import assemble
from repro.gpu.commands import CullMode, DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.shading import shade_draws
from repro.gpu.stats import GPUStats


CFG = GPUConfig().with_screen(100, 100)
# Orthographic view volume x,y in [-1,1], z in [-1,-9] world (near=1, far=9).
ORTHO = Mat4.orthographic(-1, 1, -1, 1, 1.0, 9.0)


def assemble_triangles(vertices, faces, cull=CullMode.BACK, object_id=None,
                       deferred=True):
    mesh = TriangleMesh(vertices, faces)
    frame = Frame(
        draws=(DrawCommand(mesh, Mat4.identity(), object_id=object_id, cull_mode=cull),),
        view=Mat4.identity(),
        projection=ORTHO,
    )
    stats = GPUStats()
    shaded = shade_draws(frame, CFG, stats)
    soup = assemble(shaded, CFG, stats, deferred_culling=deferred)
    return soup, stats


# A CCW (front-facing, +z normal toward the camera) triangle at z=-5.
FRONT_TRI = ([[-0.5, -0.5, -5.0], [0.5, -0.5, -5.0], [0.0, 0.5, -5.0]], [[0, 1, 2]])
BACK_TRI = (FRONT_TRI[0], [[0, 2, 1]])


class TestViewportMapping:
    def test_inside_triangle_passes_through(self):
        soup, stats = assemble_triangles(*FRONT_TRI)
        assert soup.count == 1
        assert stats.triangles_frustum_culled == 0

    def test_screen_coordinates(self):
        soup, _ = assemble_triangles(*FRONT_TRI)
        xs = sorted(soup.xy[0, :, 0])
        ys = sorted(soup.xy[0, :, 1])
        # x=-0.5 -> 25, x=0.5 -> 75 on a 100-wide screen.
        assert xs == pytest.approx([25.0, 50.0, 75.0])
        # y is flipped: world y=+0.5 -> screen y=25.
        assert ys == pytest.approx([25.0, 75.0, 75.0])

    def test_depth_mapping(self):
        soup, _ = assemble_triangles(*FRONT_TRI)
        # Ortho: z=-5 is the middle of [1, 9] -> depth 0.5.
        assert np.allclose(soup.z, 0.5)

    def test_facing_front(self):
        soup, _ = assemble_triangles(*FRONT_TRI, cull=CullMode.NONE)
        assert soup.front[0]

    def test_facing_back(self):
        soup, _ = assemble_triangles(*BACK_TRI, cull=CullMode.NONE)
        assert not soup.front[0]


class TestFrustumCullAndClip:
    def test_fully_outside_culled(self):
        verts = [[5.0, 5.0, -5.0], [6.0, 5.0, -5.0], [5.0, 6.0, -5.0]]
        soup, stats = assemble_triangles(verts, [[0, 1, 2]])
        assert soup.count == 0
        assert stats.triangles_frustum_culled == 1

    def test_behind_camera_culled(self):
        verts = [[-0.5, -0.5, 5.0], [0.5, -0.5, 5.0], [0.0, 0.5, 5.0]]
        soup, stats = assemble_triangles(verts, [[0, 1, 2]])
        assert soup.count == 0

    def test_partially_outside_clipped(self):
        # Crosses the x = +1 plane: the clipper fans the polygon.
        verts = [[0.0, -0.5, -5.0], [2.0, -0.5, -5.0], [0.0, 0.5, -5.0]]
        soup, stats = assemble_triangles(verts, [[0, 1, 2]])
        assert soup.count >= 1
        assert stats.triangles_clipped >= 1
        assert soup.xy[:, :, 0].max() <= 100.0 + 1e-6

    def test_near_plane_clip_produces_valid_depths(self):
        # Spans from in front of the near plane to behind the camera.
        verts = [[-0.5, 0.0, -5.0], [0.5, 0.0, -5.0], [0.0, 0.0, 3.0]]
        mesh_verts = [[-0.5, -0.2, -5.0], [0.5, -0.2, -5.0], [0.0, 0.8, 3.0]]
        soup, _ = assemble_triangles(mesh_verts, [[0, 1, 2]])
        if soup.count:
            assert soup.z.min() >= -1e-9
            assert soup.z.max() <= 1.0 + 1e-9

    def test_perspective_near_clip(self):
        proj = Mat4.perspective(np.deg2rad(60), 1.0, 0.5, 50.0)
        mesh = TriangleMesh(
            [[-1.0, -0.2, -5.0], [1.0, -0.2, -5.0], [0.0, 0.5, 1.0]], [[0, 1, 2]]
        )
        frame = Frame(
            draws=(DrawCommand(mesh, Mat4.identity()),),
            view=Mat4.identity(),
            projection=proj,
        )
        stats = GPUStats()
        soup = assemble(shade_draws(frame, CFG, stats), CFG, stats)
        assert soup.count >= 1
        assert np.isfinite(soup.xy).all()
        assert soup.z.min() >= -1e-9 and soup.z.max() <= 1.0 + 1e-9


class TestFaceCulling:
    def test_back_cull_removes_back_face(self):
        soup, stats = assemble_triangles(*BACK_TRI)
        assert soup.count == 0
        assert stats.triangles_face_culled == 1

    def test_front_cull_removes_front_face(self):
        soup, _ = assemble_triangles(*FRONT_TRI, cull=CullMode.FRONT)
        assert soup.count == 0

    def test_cull_none_keeps_both(self):
        soup, _ = assemble_triangles(*BACK_TRI, cull=CullMode.NONE)
        assert soup.count == 1

    def test_front_and_back_drops_all(self):
        soup, _ = assemble_triangles(*FRONT_TRI, cull=CullMode.FRONT_AND_BACK)
        assert soup.count == 0

    def test_collisionable_back_face_tagged_not_culled(self):
        soup, stats = assemble_triangles(*BACK_TRI, object_id=7)
        assert soup.count == 1
        assert soup.tagged[0]
        assert soup.object_id[0] == 7
        assert stats.triangles_tagged_to_be_culled == 1
        assert stats.triangles_face_culled == 0

    def test_collisionable_front_face_not_tagged(self):
        soup, _ = assemble_triangles(*FRONT_TRI, object_id=7)
        assert soup.count == 1
        assert not soup.tagged[0]

    def test_deferred_culling_disabled_behaves_like_baseline(self):
        soup, stats = assemble_triangles(*BACK_TRI, object_id=7, deferred=False)
        assert soup.count == 0
        assert stats.triangles_face_culled == 1
        assert stats.triangles_tagged_to_be_culled == 0

    def test_non_collisionable_object_id_is_minus_one(self):
        soup, _ = assemble_triangles(*FRONT_TRI)
        assert soup.object_id[0] == -1


class TestDegenerate:
    def test_zero_area_dropped(self):
        verts = [[0.0, 0.0, -5.0], [0.5, 0.0, -5.0], [1.0, 0.0, -5.0]]
        soup, stats = assemble_triangles(verts, [[0, 1, 2]], cull=CullMode.NONE)
        assert soup.count == 0
        assert stats.triangles_degenerate == 1

