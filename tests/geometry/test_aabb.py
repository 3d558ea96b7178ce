"""AABB tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.aabb import AABB
from repro.geometry.vec import Mat4, Vec3

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def aabbs(draw):
    xs = sorted((draw(coord), draw(coord)))
    ys = sorted((draw(coord), draw(coord)))
    zs = sorted((draw(coord), draw(coord)))
    return AABB(Vec3(xs[0], ys[0], zs[0]), Vec3(xs[1], ys[1], zs[1]))


def contains(outer: AABB, inner: AABB) -> bool:
    return outer.contains_point(inner.lo) and outer.contains_point(inner.hi)


class TestConstruction:
    def test_invalid_ordering_raises(self):
        with pytest.raises(ValueError):
            AABB(Vec3(1, 0, 0), Vec3(0, 1, 1))

    def test_from_points(self):
        box = AABB.from_points(np.array([[0, 0, 0], [1, 2, 3], [-1, 1, 1]]))
        assert box.lo == Vec3(-1, 0, 0)
        assert box.hi == Vec3(1, 2, 3)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            AABB.from_points(np.zeros((0, 3)))

    def test_from_center_half_extents(self):
        box = AABB.from_center_half_extents(Vec3(1, 1, 1), Vec3(0.5, 1.0, 1.5))
        assert box.lo == Vec3(0.5, 0.0, -0.5)
        assert box.hi == Vec3(1.5, 2.0, 2.5)

    def test_negative_half_extents_raise(self):
        with pytest.raises(ValueError):
            AABB.from_center_half_extents(Vec3.zero(), Vec3(-1, 0, 0))


class TestQueries:
    def test_center_size_volume(self):
        box = AABB(Vec3(0, 0, 0), Vec3(2, 4, 6))
        assert box.center == Vec3(1, 2, 3)
        assert box.size == Vec3(2, 4, 6)
        assert box.volume() == pytest.approx(48.0)

    def test_contains_point(self):
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        assert box.contains_point(Vec3(0.5, 0.5, 0.5))
        assert box.contains_point(Vec3(1, 1, 1))  # boundary inclusive
        assert not box.contains_point(Vec3(1.01, 0.5, 0.5))

    def test_overlap_cases(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        assert a.overlaps(AABB(Vec3(0.5, 0.5, 0.5), Vec3(2, 2, 2)))
        assert a.overlaps(AABB(Vec3(1, 0, 0), Vec3(2, 1, 1)))  # touching counts
        assert not a.overlaps(AABB(Vec3(1.1, 0, 0), Vec3(2, 1, 1)))
        # Disjoint along only one axis is still disjoint.
        assert not a.overlaps(AABB(Vec3(0, 0, 2), Vec3(1, 1, 3)))

    def test_union_contains_both(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        b = AABB(Vec3(2, -1, 0), Vec3(3, 0.5, 2))
        u = a.union(b)
        assert contains(u, a) and contains(u, b)

    def test_intersection(self):
        a = AABB(Vec3(0, 0, 0), Vec3(2, 2, 2))
        b = AABB(Vec3(1, 1, 1), Vec3(3, 3, 3))
        inter = a.intersection(b)
        assert inter == AABB(Vec3(1, 1, 1), Vec3(2, 2, 2))

    def test_intersection_disjoint_is_none(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        b = AABB(Vec3(5, 5, 5), Vec3(6, 6, 6))
        assert a.intersection(b) is None

    def test_corners_count_and_bounds(self):
        box = AABB(Vec3(0, 0, 0), Vec3(1, 2, 3))
        corners = box.corners()
        assert corners.shape == (8, 3)
        assert AABB.from_points(corners) == box

    @given(aabbs(), aabbs())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(aabbs(), aabbs())
    def test_intersection_consistent_with_overlap(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.overlaps(b)
        if inter is not None:
            assert contains(a, inter) and contains(b, inter)


class TestTransformed:
    def test_translation_moves_box(self):
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        moved = box.transformed(Mat4.translation(Vec3(5, 0, 0)))
        assert moved == AABB(Vec3(5, 0, 0), Vec3(6, 1, 1))

    def test_rotation_is_conservative(self):
        box = AABB(Vec3(-1, -1, -1), Vec3(1, 1, 1))
        rotated = box.transformed(Mat4.rotation_z(np.pi / 4))
        # The rotated cube's x-extent grows to sqrt(2).
        assert rotated.hi.x == pytest.approx(np.sqrt(2.0))
        assert rotated.hi.z == pytest.approx(1.0)

    @given(aabbs(), st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_transform_bounds_original_corners(self, box, angle):
        m = Mat4.rotation_y(angle) @ Mat4.translation(Vec3(1, 2, 3))
        out = box.transformed(m)
        from repro.geometry.vec import transform_points

        pts = transform_points(m, box.corners())
        assert np.all(pts >= out.lo.to_array() - 1e-6)
        assert np.all(pts <= out.hi.to_array() + 1e-6)
