"""CollisionWorld (CPU CD pipeline) tests."""

import pytest

from repro.geometry.primitives import make_box, make_concave_l, make_uv_sphere
from repro.geometry.vec import Mat4, Vec3
from repro.physics.world import BROAD_ALGOS, CollisionWorld


def two_box_world(separation: float) -> CollisionWorld:
    world = CollisionWorld()
    world.add_object(1, make_box(Vec3(0.5, 0.5, 0.5)))
    world.add_object(2, make_box(Vec3(0.5, 0.5, 0.5)))
    world.set_transform(2, Mat4.translation(Vec3(separation, 0, 0)))
    return world


class TestManagement:
    def test_duplicate_id_rejected(self):
        world = CollisionWorld()
        world.add_object(1, make_box())
        with pytest.raises(ValueError):
            world.add_object(1, make_box())

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            CollisionWorld().add_object(-1, make_box())

    def test_remove(self):
        world = two_box_world(0.5)
        world.remove_object(2)
        assert len(world) == 1

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError):
            CollisionWorld("bvh")

    def test_only_bruteforce_and_lbvh(self):
        assert BROAD_ALGOS == ("bruteforce", "lbvh")

    @pytest.mark.parametrize("algo", ["sap", "tree"])
    def test_deleted_broad_backends_rejected(self, algo):
        with pytest.raises(ValueError, match="broad_algorithm"):
            CollisionWorld(algo)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            two_box_world(1.0).detect("narrow-only")


class TestDetection:
    def test_broad_positive(self):
        result = two_box_world(0.8).detect("broad")
        assert result.pairs == [(1, 2)]
        assert result.mode == "broad"

    def test_broad_negative(self):
        assert two_box_world(2.0).detect("broad").pairs == []

    def test_narrow_confirms(self):
        result = two_box_world(0.8).detect("broad+narrow")
        assert result.broad_pairs == [(1, 2)]
        assert result.narrow_pairs == [(1, 2)]
        assert result.pairs == [(1, 2)]

    def test_narrow_rejects_broad_false_positive(self):
        # Two spheres whose AABBs overlap at the corner but whose
        # volumes do not touch.
        world = CollisionWorld()
        world.add_object(1, make_uv_sphere(0.5, 12, 18))
        world.add_object(2, make_uv_sphere(0.5, 12, 18))
        d = 0.95 * 2 * 0.5 / (3 ** 0.5) * 1.4  # diagonal offset
        world.set_transform(2, Mat4.translation(Vec3(d, d, d) * (0.9 / d)))
        # Place them on the diagonal: AABB gap 0.1 per axis overlap but
        # centre distance > 1.
        world.set_transform(2, Mat4.translation(Vec3(0.75, 0.75, 0.75)))
        result = world.detect("broad+narrow")
        assert result.broad_pairs == [(1, 2)]
        assert result.narrow_pairs == []

    def test_concave_hull_false_positive(self):
        # A small box inside the L's notch: the AABB and convex hull
        # both claim collision, the real shapes do not touch — the
        # Figure 2 accuracy story (GJK-on-hull reports it).
        world = CollisionWorld()
        world.add_object(1, make_concave_l(1.0, 0.4, 0.4))
        world.add_object(2, make_box(Vec3(0.1, 0.1, 0.1)))
        world.set_transform(2, Mat4.translation(Vec3(0.7, 0.7, 0.0)))
        result = world.detect("broad+narrow")
        assert result.narrow_pairs == [(1, 2)]  # hull-level false positive

    def test_ops_accumulate(self):
        result = two_box_world(0.8).detect("broad+narrow")
        assert result.ops.total > 0

    def test_narrow_costs_more_than_broad(self):
        world = two_box_world(0.8)
        broad = world.detect("broad")
        narrow = world.detect("broad+narrow")
        assert narrow.ops.total > broad.ops.total

    @pytest.mark.parametrize("algo", ["lbvh"])
    def test_alternate_broad_backends(self, algo):
        world = CollisionWorld(algo)
        world.add_object(1, make_box())
        world.add_object(2, make_box())
        world.set_transform(2, Mat4.translation(Vec3(0.5, 0, 0)))
        assert world.detect("broad").pairs == [(1, 2)]

    def test_three_objects_pair_list(self):
        world = two_box_world(0.8)
        world.add_object(3, make_box())
        world.set_transform(3, Mat4.translation(Vec3(10, 0, 0)))
        result = world.detect("broad")
        assert result.pairs == [(1, 2)]
