"""Broad-phase tests: world-AABB recompute and the brute-force baseline."""

import numpy as np
import pytest

from repro.geometry.aabb import AABB
from repro.geometry.primitives import make_box
from repro.geometry.vec import Mat4, Vec3
from repro.physics.broadphase import (
    aabb_bruteforce_pairs,
    world_aabb_of_mesh,
    world_aabbs,
)
from repro.physics.counters import OpCounter


def boxes_at(positions, half=0.5):
    return [
        AABB.from_center_half_extents(Vec3(*p), Vec3(half, half, half))
        for p in positions
    ]


class TestWorldAABB:
    def test_transformed_bounds(self):
        mesh = make_box(Vec3(0.5, 0.5, 0.5))
        ops = OpCounter()
        box = world_aabb_of_mesh(mesh.vertices, Mat4.translation(Vec3(2, 0, 0)), ops)
        assert box.lo.is_close(Vec3(1.5, -0.5, -0.5))
        assert ops.flop > 0 and ops.mem > 0

    def test_rotation_recomputes_tight_bounds(self):
        mesh = make_box(Vec3(0.5, 0.5, 0.5))
        box = world_aabb_of_mesh(mesh.vertices, Mat4.rotation_z(np.pi / 4), OpCounter())
        assert box.hi.x == pytest.approx(np.sqrt(0.5))

    def test_world_aabbs_length_check(self):
        with pytest.raises(ValueError):
            world_aabbs([make_box().vertices], [], OpCounter())

    def test_op_count_scales_with_vertices(self):
        small = OpCounter()
        world_aabb_of_mesh(make_box().vertices, Mat4.identity(), small)
        from repro.geometry.primitives import make_uv_sphere

        big = OpCounter()
        world_aabb_of_mesh(make_uv_sphere(1.0, 16, 24).vertices, Mat4.identity(), big)
        assert big.total > small.total


class TestBruteForce:
    def test_overlapping_pair_found(self):
        boxes = boxes_at([(0, 0, 0), (0.8, 0, 0), (5, 0, 0)])
        result = aabb_bruteforce_pairs(boxes, [10, 20, 30], OpCounter())
        assert result.pairs == [(10, 20)]

    def test_pairs_canonically_ordered(self):
        boxes = boxes_at([(0, 0, 0), (0.5, 0, 0)])
        result = aabb_bruteforce_pairs(boxes, [9, 2], OpCounter())
        assert result.pairs == [(2, 9)]

    def test_ops_quadratic(self):
        small_ops = OpCounter()
        aabb_bruteforce_pairs(boxes_at([(i * 5, 0, 0) for i in range(4)]),
                              list(range(4)), small_ops)
        big_ops = OpCounter()
        aabb_bruteforce_pairs(boxes_at([(i * 5, 0, 0) for i in range(8)]),
                              list(range(8)), big_ops)
        assert big_ops.cmp == pytest.approx(small_ops.cmp * 28 / 6)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            aabb_bruteforce_pairs(boxes_at([(0, 0, 0)]), [], OpCounter())

