"""Axis-aligned bounding boxes.

AABBs are the currency of the broad phase (Section 2 of the paper: the
"most simple broad phase, an AABB overlap test") and of the tiling
engine, which bins screen-space primitive bounds to tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.vec import Mat4, Vec3


@dataclass(frozen=True, slots=True)
class AABB:
    """Closed axis-aligned box ``[lo, hi]`` in 3-D.

    Invariant: ``lo <= hi`` component-wise.  Construct via
    ``from_points`` / ``from_center_half_extents`` when possible; the
    raw constructor validates.
    """

    lo: Vec3
    hi: Vec3

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y or self.lo.z > self.hi.z:
            raise ValueError(f"AABB lo must be <= hi, got lo={self.lo} hi={self.hi}")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_points(points: np.ndarray) -> "AABB":
        """Tight box around an (N, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError(f"expected non-empty (N, 3) points, got {pts.shape}")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        return AABB(Vec3.from_array(lo), Vec3.from_array(hi))

    @staticmethod
    def from_center_half_extents(center: Vec3, half: Vec3) -> "AABB":
        if half.x < 0 or half.y < 0 or half.z < 0:
            raise ValueError("half extents must be non-negative")
        return AABB(center - half, center + half)

    # -- queries ------------------------------------------------------------

    @property
    def center(self) -> Vec3:
        return (self.lo + self.hi) * 0.5

    @property
    def half_extents(self) -> Vec3:
        return (self.hi - self.lo) * 0.5

    @property
    def size(self) -> Vec3:
        return self.hi - self.lo

    def volume(self) -> float:
        s = self.size
        return s.x * s.y * s.z

    def contains_point(self, p: Vec3) -> bool:
        return (
            self.lo.x <= p.x <= self.hi.x
            and self.lo.y <= p.y <= self.hi.y
            and self.lo.z <= p.z <= self.hi.z
        )

    def overlaps(self, other: "AABB") -> bool:
        """Closed-interval overlap test — touching boxes count as overlapping.

        This mirrors Bullet's AABB test used by the paper's broad-phase
        baseline (six comparisons).
        """
        return (
            self.lo.x <= other.hi.x
            and self.hi.x >= other.lo.x
            and self.lo.y <= other.hi.y
            and self.hi.y >= other.lo.y
            and self.lo.z <= other.hi.z
            and self.hi.z >= other.lo.z
        )

    def union(self, other: "AABB") -> "AABB":
        return AABB(self.lo.min_with(other.lo), self.hi.max_with(other.hi))

    def intersection(self, other: "AABB") -> "AABB | None":
        """Overlap region, or ``None`` when disjoint."""
        lo = self.lo.max_with(other.lo)
        hi = self.hi.min_with(other.hi)
        if lo.x > hi.x or lo.y > hi.y or lo.z > hi.z:
            return None
        return AABB(lo, hi)

    def corners(self) -> np.ndarray:
        """The 8 corner points as an (8, 3) array."""
        lo, hi = self.lo, self.hi
        return np.array(
            [
                [x, y, z]
                for x in (lo.x, hi.x)
                for y in (lo.y, hi.y)
                for z in (lo.z, hi.z)
            ]
        )

    def transformed(self, m: Mat4) -> "AABB":
        """AABB of this box's corners after an affine transform.

        This is the standard conservative re-fit: the result bounds the
        transformed box, and is generally looser than the transformed
        geometry itself (the false-collisionable area the paper's
        Figure 2 attributes to AABBs).
        """
        from repro.geometry.vec import transform_points

        return AABB.from_points(transform_points(m, self.corners()))
