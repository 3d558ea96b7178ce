"""Small linear-algebra kernel used across the whole reproduction.

Two levels of API coexist on purpose:

* ``Vec3`` — an immutable convenience type for scalar geometry code
  (GJK, physics, scene setup) where readability beats throughput.
* ``Mat4`` plus the batch helpers ``transform_points`` /
  ``transform_directions`` — numpy-backed, used by the GPU vertex stage
  where whole vertex arrays are transformed at once.

Conventions: right-handed coordinates, column vectors, matrices act on
the left (``m @ v``).  Projection matrices follow the OpenGL clip-space
convention (z in [-1, 1] after perspective divide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Vec3:
    """Immutable 3-component vector of floats."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_array(a) -> "Vec3":
        """Build from any indexable of length >= 3."""
        return Vec3(float(a[0]), float(a[1]), float(a[2]))

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def ones() -> "Vec3":
        return Vec3(1.0, 1.0, 1.0)

    @staticmethod
    def unit_x() -> "Vec3":
        return Vec3(1.0, 0.0, 0.0)

    @staticmethod
    def unit_y() -> "Vec3":
        return Vec3(0.0, 1.0, 0.0)

    @staticmethod
    def unit_z() -> "Vec3":
        return Vec3(0.0, 0.0, 1.0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        inv = 1.0 / s
        return Vec3(self.x * inv, self.y * inv, self.z * inv)

    def __getitem__(self, i: int) -> float:
        return (self.x, self.y, self.z)[i]

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    # -- products and norms ---------------------------------------------

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def length_squared(self) -> float:
        return self.dot(self)

    def length(self) -> float:
        return math.sqrt(self.length_squared())

    def normalized(self) -> "Vec3":
        """Unit vector in the same direction.

        Raises ``ValueError`` on (near-)zero vectors: silently returning
        a zero direction hides bugs in geometry code.
        """
        n = self.length()
        if n < _EPS:
            raise ValueError("cannot normalize a zero-length vector")
        return self / n

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).length()

    def scaled_by(self, other: "Vec3") -> "Vec3":
        """Component-wise product."""
        return Vec3(self.x * other.x, self.y * other.y, self.z * other.z)

    def min_with(self, other: "Vec3") -> "Vec3":
        return Vec3(min(self.x, other.x), min(self.y, other.y), min(self.z, other.z))

    def max_with(self, other: "Vec3") -> "Vec3":
        return Vec3(max(self.x, other.x), max(self.y, other.y), max(self.z, other.z))

    def lerp(self, other: "Vec3", t: float) -> "Vec3":
        return self + (other - self) * t

    def is_close(self, other: "Vec3", tol: float = 1e-9) -> bool:
        return (self - other).length_squared() <= tol * tol

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


class Mat4:
    """A 4x4 transform matrix backed by a numpy array.

    Instances are treated as immutable: every operation returns a new
    ``Mat4``.  The raw array is exposed read-only through ``.a``.
    """

    __slots__ = ("_a",)

    def __init__(self, array) -> None:
        a = np.asarray(array, dtype=np.float64)
        if a.shape != (4, 4):
            raise ValueError(f"Mat4 needs a 4x4 array, got shape {a.shape}")
        a = a.copy()
        a.flags.writeable = False
        self._a = a

    @property
    def a(self) -> np.ndarray:
        """The underlying (read-only) 4x4 numpy array."""
        return self._a

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity() -> "Mat4":
        return Mat4(np.eye(4))

    @staticmethod
    def translation(t: Vec3) -> "Mat4":
        m = np.eye(4)
        m[:3, 3] = (t.x, t.y, t.z)
        return Mat4(m)

    @staticmethod
    def scaling(s) -> "Mat4":
        """Uniform (scalar) or per-axis (Vec3) scale."""
        if isinstance(s, Vec3):
            sx, sy, sz = s.x, s.y, s.z
        else:
            sx = sy = sz = float(s)
        m = np.eye(4)
        m[0, 0], m[1, 1], m[2, 2] = sx, sy, sz
        return Mat4(m)

    @staticmethod
    def rotation_x(angle: float) -> "Mat4":
        c, s = math.cos(angle), math.sin(angle)
        m = np.eye(4)
        m[1, 1], m[1, 2] = c, -s
        m[2, 1], m[2, 2] = s, c
        return Mat4(m)

    @staticmethod
    def rotation_y(angle: float) -> "Mat4":
        c, s = math.cos(angle), math.sin(angle)
        m = np.eye(4)
        m[0, 0], m[0, 2] = c, s
        m[2, 0], m[2, 2] = -s, c
        return Mat4(m)

    @staticmethod
    def rotation_z(angle: float) -> "Mat4":
        c, s = math.cos(angle), math.sin(angle)
        m = np.eye(4)
        m[0, 0], m[0, 1] = c, -s
        m[1, 0], m[1, 1] = s, c
        return Mat4(m)

    @staticmethod
    def rotation_axis(axis: Vec3, angle: float) -> "Mat4":
        """Rotation of ``angle`` radians about an arbitrary axis."""
        u = axis.normalized()
        c, s = math.cos(angle), math.sin(angle)
        oc = 1.0 - c
        m = np.eye(4)
        m[:3, :3] = [
            [c + u.x * u.x * oc, u.x * u.y * oc - u.z * s, u.x * u.z * oc + u.y * s],
            [u.y * u.x * oc + u.z * s, c + u.y * u.y * oc, u.y * u.z * oc - u.x * s],
            [u.z * u.x * oc - u.y * s, u.z * u.y * oc + u.x * s, c + u.z * u.z * oc],
        ]
        return Mat4(m)

    @staticmethod
    def trs(t: Vec3, rotation: "Mat4", s) -> "Mat4":
        """Compose translate * rotate * scale (the usual model matrix)."""
        return Mat4.translation(t) @ rotation @ Mat4.scaling(s)

    @staticmethod
    def look_at(eye: Vec3, target: Vec3, up: Vec3) -> "Mat4":
        """Right-handed view matrix (camera looks down -Z in view space)."""
        f = (target - eye).normalized()
        s = f.cross(up).normalized()
        u = s.cross(f)
        m = np.eye(4)
        m[0, :3] = (s.x, s.y, s.z)
        m[1, :3] = (u.x, u.y, u.z)
        m[2, :3] = (-f.x, -f.y, -f.z)
        m[0, 3] = -s.dot(eye)
        m[1, 3] = -u.dot(eye)
        m[2, 3] = f.dot(eye)
        return Mat4(m)

    @staticmethod
    def perspective(fov_y: float, aspect: float, near: float, far: float) -> "Mat4":
        """OpenGL-style perspective projection (z_clip in [-1, 1])."""
        if near <= 0 or far <= near:
            raise ValueError("require 0 < near < far")
        f = 1.0 / math.tan(fov_y / 2.0)
        m = np.zeros((4, 4))
        m[0, 0] = f / aspect
        m[1, 1] = f
        m[2, 2] = (far + near) / (near - far)
        m[2, 3] = (2.0 * far * near) / (near - far)
        m[3, 2] = -1.0
        return Mat4(m)

    @staticmethod
    def orthographic(
        left: float, right: float, bottom: float, top: float, near: float, far: float
    ) -> "Mat4":
        """OpenGL-style orthographic projection."""
        m = np.eye(4)
        m[0, 0] = 2.0 / (right - left)
        m[1, 1] = 2.0 / (top - bottom)
        m[2, 2] = -2.0 / (far - near)
        m[0, 3] = -(right + left) / (right - left)
        m[1, 3] = -(top + bottom) / (top - bottom)
        m[2, 3] = -(far + near) / (far - near)
        return Mat4(m)

    # -- operations --------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Mat4):
            return Mat4(self._a @ other._a)
        if isinstance(other, Vec3):
            return self.transform_point(other)
        return NotImplemented

    def transform_point(self, p: Vec3) -> Vec3:
        """Apply to a position (w=1), with perspective divide."""
        v = self._a @ np.array([p.x, p.y, p.z, 1.0])
        w = v[3]
        if abs(w) < _EPS:
            raise ValueError("transform produced w ~= 0 (point at infinity)")
        return Vec3(v[0] / w, v[1] / w, v[2] / w)

    def transform_direction(self, d: Vec3) -> Vec3:
        """Apply to a direction (w=0): rotation/scale only."""
        v = self._a[:3, :3] @ np.array([d.x, d.y, d.z])
        return Vec3(v[0], v[1], v[2])

    def inverse(self) -> "Mat4":
        return Mat4(np.linalg.inv(self._a))

    def normal_matrix(self) -> np.ndarray:
        """3x3 inverse-transpose for transforming normals."""
        return np.linalg.inv(self._a[:3, :3]).T

    def is_close(self, other: "Mat4", tol: float = 1e-9) -> bool:
        return bool(np.allclose(self._a, other._a, atol=tol))

    def __repr__(self) -> str:
        return f"Mat4({self._a.tolist()!r})"


def transform_points(m: Mat4, points: np.ndarray) -> np.ndarray:
    """Transform an (N, 3) array of positions by ``m``, with w divide.

    Returns an (N, 3) float64 array.  Rows whose transformed ``w`` is
    ~0 would be points at infinity; the caller (the clipper) must have
    removed them, so we raise if any slip through.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {pts.shape}")
    hom = np.empty((pts.shape[0], 4))
    hom[:, :3] = pts
    hom[:, 3] = 1.0
    out = hom @ m.a.T
    w = out[:, 3]
    if np.any(np.abs(w) < _EPS):
        raise ValueError("transform produced w ~= 0 for some points")
    return out[:, :3] / w[:, None]


def transform_points_homogeneous(m: Mat4, points: np.ndarray) -> np.ndarray:
    """Transform (N, 3) positions to (N, 4) clip coordinates (no divide).

    Used by the GPU vertex stage, which clips in homogeneous space
    before the perspective divide.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {pts.shape}")
    hom = np.empty((pts.shape[0], 4))
    hom[:, :3] = pts
    hom[:, 3] = 1.0
    return hom @ m.a.T


def transform_directions(m: Mat4, dirs: np.ndarray) -> np.ndarray:
    """Transform an (N, 3) array of directions (w = 0) by ``m``."""
    d = np.asarray(dirs, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"expected (N, 3) directions, got {d.shape}")
    return d @ m.a[:3, :3].T
