"""CollisionWorld: the CPU-side CD pipelines (Bullet-equivalent).

Three modes: the two baselines of Section 4.3, plus an exact oracle.

``mode="broad"``
    Per-frame world-AABB recompute over every collisionable mesh plus
    the all-pairs AABB overlap test.
``mode="broad+narrow"``
    The broad phase above, then GJK (on convex hulls, transformed to
    world space per frame) for every surviving pair.
``mode="broad+exact"``
    The broad phase, then the exact O(n*n) triangle-triangle narrow
    phase — the unsimplified CD the paper's Section 2 describes as
    "often the most computationally-intensive task".  Kept as a third
    baseline/oracle; it is far costlier than GJK.

The broad phase is one of :data:`BROAD_ALGOS`: ``"bruteforce"`` (the
paper's all-pairs baseline, the default) or ``"lbvh"`` (the linear BVH
of :mod:`repro.physics.lbvh`, the exact oracle's broad phase).  Both
return the same pairs; only the operation tally differs.

Every frame returns the detected pairs *and* the operation tally, which
``repro.cpu`` prices into Cortex-A9 time and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import Mat4
from repro.physics.broadphase import aabb_bruteforce_pairs, world_aabbs
from repro.physics.counters import OpCounter
from repro.physics.epa import epa_penetration
from repro.physics.gjk import gjk_intersect
from repro.physics.shapes import ConvexShape

MODES = ("broad", "broad+narrow", "broad+exact")
BROAD_ALGOS = ("bruteforce", "lbvh")


@dataclass
class CDResult:
    """One frame of software collision detection."""

    broad_pairs: list[tuple[int, int]]
    narrow_pairs: list[tuple[int, int]]
    ops: OpCounter
    mode: str

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The pipeline's final answer for its mode."""
        if self.mode == "broad":
            return self.broad_pairs
        return self.narrow_pairs


class CollisionObject:
    """One collisionable object registered with the world."""

    def __init__(self, object_id: int, mesh: TriangleMesh) -> None:
        if object_id < 0:
            raise ValueError("object_id must be non-negative")
        self.object_id = object_id
        self.mesh = mesh
        self.model = Mat4.identity()
        # GJK treats the (possibly concave) mesh as its convex hull —
        # the Figure 2 setup.  Support queries over the raw vertex set
        # are identical to queries over the hull, and scanning all
        # points per query is exactly what Bullet's btConvexHullShape
        # does without preprocessing, so the op tally matches the
        # paper's baseline.
        self.shape = ConvexShape(mesh.vertices)

    def set_model(self, model: Mat4) -> None:
        self.model = model


class CollisionWorld:
    """Software CD over a set of collisionable objects."""

    def __init__(self, broad_algorithm: str = "bruteforce") -> None:
        if broad_algorithm not in BROAD_ALGOS:
            raise ValueError(f"broad_algorithm must be one of {BROAD_ALGOS}")
        self.broad_algorithm = broad_algorithm
        self._objects: dict[int, CollisionObject] = {}

    def add_object(self, object_id: int, mesh: TriangleMesh) -> CollisionObject:
        if object_id in self._objects:
            raise ValueError(f"object id {object_id} already registered")
        obj = CollisionObject(object_id, mesh)
        self._objects[object_id] = obj
        return obj

    def remove_object(self, object_id: int) -> None:
        del self._objects[object_id]

    def set_transform(self, object_id: int, model: Mat4) -> None:
        self._objects[object_id].set_model(model)

    def __len__(self) -> int:
        return len(self._objects)

    def objects(self) -> list[CollisionObject]:
        return list(self._objects.values())

    def detect(self, mode: str = "broad") -> CDResult:
        """Run one frame of CD; returns pairs plus the op tally."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        ops = OpCounter()
        objs = self.objects()
        ids = [o.object_id for o in objs]

        boxes = world_aabbs([o.mesh.vertices for o in objs], [o.model for o in objs], ops)
        if self.broad_algorithm == "lbvh":
            from repro.physics.lbvh import lbvh_broadphase_pairs

            broad = lbvh_broadphase_pairs(boxes, ids, ops)
        else:
            broad = aabb_bruteforce_pairs(boxes, ids, ops)

        narrow_pairs: list[tuple[int, int]] = []
        if mode == "broad+exact":
            from repro.physics.tritri import mesh_pair_intersect

            by_id = {o.object_id: o for o in objs}
            for id_a, id_b in broad.pairs:
                a, b = by_id[id_a], by_id[id_b]
                if mesh_pair_intersect(a.mesh, a.model, b.mesh, b.model, ops):
                    narrow_pairs.append((id_a, id_b))
        elif mode == "broad+narrow":
            by_id = {o.object_id: o for o in objs}
            # Bullet refreshes every collision object's world transform
            # each step, then runs the convex pair algorithm per broad-
            # phase candidate: GJK, plus penetration-depth/contact
            # computation (EPA) for intersecting pairs — games need the
            # contact, not just the boolean.
            for obj in objs:
                obj.shape.update_transform(obj.model, ops)
            for id_a, id_b in broad.pairs:
                result = gjk_intersect(by_id[id_a].shape, by_id[id_b].shape, ops)
                if result.intersecting:
                    narrow_pairs.append((id_a, id_b))
                    epa_penetration(
                        by_id[id_a].shape, by_id[id_b].shape, result, ops
                    )

        return CDResult(
            broad_pairs=broad.pairs,
            narrow_pairs=sorted(narrow_pairs),
            ops=ops,
            mode=mode,
        )
