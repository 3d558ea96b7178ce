"""Broad-phase collision detection over axis-aligned bounding boxes.

Models the paper's CPU broad baseline ("the most simple broad phase, an
AABB overlap test", Section 5.1): every frame, each collisionable
object's world AABB is recomputed from its transformed mesh vertices —
exactly what Bullet does for mesh-backed collision shapes — and then
every pair gets the overlap test.  The exact LBVH broad phase
(:mod:`repro.physics.lbvh`) consumes the same world AABBs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.vec import Mat4, transform_points
from repro.physics.counters import AABB_FOLD_CMPS, TRANSFORM_POINT_FLOPS, OpCounter


@dataclass
class BroadPhaseResult:
    """Candidate pairs plus the operation tally that produced them."""

    pairs: list[tuple[int, int]]
    ops: OpCounter


def world_aabb_of_mesh(
    vertices: np.ndarray, model: Mat4, ops: OpCounter
) -> AABB:
    """World AABB of a mesh: transform every vertex, fold min/max.

    This is the per-frame AABB *recompute* cost of a mesh-backed
    collision shape; the op tally reflects the scalar loop (one
    transform + one min/max fold per vertex).
    """
    world = transform_points(model, vertices)
    n = vertices.shape[0]
    ops.add_all(
        flop=n * TRANSFORM_POINT_FLOPS,
        cmp=n * 2 * AABB_FOLD_CMPS,          # min fold + max fold
        mem=n * (3 + 3 + 6),                 # read vertex, write point, rmw bounds
    )
    return AABB.from_points(world)


def world_aabbs(
    meshes: list[np.ndarray], models: list[Mat4], ops: OpCounter
) -> list[AABB]:
    """Per-frame world AABBs for every collisionable object."""
    if len(meshes) != len(models):
        raise ValueError("need one model matrix per mesh")
    return [world_aabb_of_mesh(v, m, ops) for v, m in zip(meshes, models)]


def _overlap_counted(a: AABB, b: AABB, ops: OpCounter) -> bool:
    """Six-compare AABB test with early out (the tally counts the
    average-case 6 compares and loads, like the scalar code would)."""
    ops.add_all(cmp=6, mem=12, branch=6)
    return a.overlaps(b)


def aabb_bruteforce_pairs(
    boxes: list[AABB], ids: list[int], ops: OpCounter
) -> BroadPhaseResult:
    """All-pairs AABB overlap: the paper's broad-CD baseline."""
    if len(boxes) != len(ids):
        raise ValueError("need one id per box")
    pairs: list[tuple[int, int]] = []
    n = len(boxes)
    for i in range(n):
        for j in range(i + 1, n):
            if _overlap_counted(boxes[i], boxes[j], ops):
                a, b = ids[i], ids[j]
                pairs.append((a, b) if a <= b else (b, a))
    return BroadPhaseResult(pairs=sorted(pairs), ops=ops)
