"""Geometry substrate: vectors, matrices, AABBs, meshes and primitives."""

from repro.geometry.vec import (
    Mat4,
    Vec3,
    transform_directions,
    transform_points,
)
from repro.geometry.aabb import AABB
from repro.geometry.mesh import TriangleMesh
from repro.geometry.primitives import (
    make_box,
    make_capsule,
    make_cylinder,
    make_icosphere,
    make_plane,
    make_torus,
    make_uv_sphere,
    make_concave_l,
)

__all__ = [
    "AABB",
    "Mat4",
    "TriangleMesh",
    "Vec3",
    "make_box",
    "make_capsule",
    "make_concave_l",
    "make_cylinder",
    "make_icosphere",
    "make_plane",
    "make_torus",
    "make_uv_sphere",
    "transform_directions",
    "transform_points",
]
