"""Software collision detection (the paper's CPU baselines).

From-scratch, instrumented equivalents of the Bullet-based baselines of
Section 4.3: an all-pairs AABB broad phase (plus the LBVH broad phase
the exact oracle uses) and a GJK narrow phase (plus EPA penetration
depth for the dynamics examples).  Every implementation counts the
arithmetic, comparison, memory and branch operations it executes; the
``repro.cpu`` model prices those counts into Cortex-A9-like cycles and
energy.
"""

from repro.physics.counters import OpCounter
from repro.physics.broadphase import (
    BroadPhaseResult,
    aabb_bruteforce_pairs,
    world_aabbs,
)
from repro.physics.shapes import ConvexShape, SupportPoint
from repro.physics.gjk import GJKResult, gjk_intersect
from repro.physics.epa import EPAResult, epa_penetration
from repro.physics.world import CollisionObject, CollisionWorld, CDResult
from repro.physics.dynamics import RigidBody, PhysicsWorld

__all__ = [
    "BroadPhaseResult",
    "CDResult",
    "CollisionObject",
    "CollisionWorld",
    "ConvexShape",
    "EPAResult",
    "GJKResult",
    "OpCounter",
    "PhysicsWorld",
    "RigidBody",
    "SupportPoint",
    "aabb_bruteforce_pairs",
    "epa_penetration",
    "gjk_intersect",
    "world_aabbs",
]
