"""Scalar rasterizer and early-Z: the hardware-literal kernels.

The executable specification :mod:`repro.gpu.kernels` is held to, kept
as a test oracle.  The rasterizer scan-converts one triangle at a time
over its bounding box; early-Z tests one fragment at a time against the
running Z-buffer.  ``tests/gpu/test_kernel_conformance.py`` compares the
vectorized kernels with these, and the ``reference_kernels`` fixture
(``tests/conftest.py``) runs the whole pipeline on them.
"""

from __future__ import annotations

import numpy as np


def rasterize_triangle(xy: np.ndarray, z: np.ndarray, width: int, height: int):
    """Fragments of one screen triangle.

    Returns ``(px, py, pz)`` integer pixel coords and depths, or
    ``None`` when the triangle covers no pixel centre.  Boundary pixels
    follow the D3D/GL top-left fill rule so shared edges never double-
    generate fragments.
    """
    e1 = xy[1] - xy[0]
    e2 = xy[2] - xy[0]
    area2 = e1[0] * e2[1] - e1[1] * e2[0]
    if area2 == 0.0:
        return None
    sign = 1.0 if area2 > 0 else -1.0

    # Bbox widened to whole pixels; the edge tests decide inclusion, so
    # a slightly generous box only costs a few extra tests and keeps
    # shared edges watertight even at half-integer coordinates.
    x0 = max(int(np.floor(xy[:, 0].min())), 0)
    x1 = min(int(np.ceil(xy[:, 0].max())), width - 1)
    y0 = max(int(np.floor(xy[:, 1].min())), 0)
    y1 = min(int(np.ceil(xy[:, 1].max())), height - 1)
    if x1 < x0 or y1 < y0:
        return None

    px = np.arange(x0, x1 + 1, dtype=np.int32)
    py = np.arange(y0, y1 + 1, dtype=np.int32)
    cx = px.astype(np.float64) + 0.5
    cy = py.astype(np.float64) + 0.5
    gx, gy = np.meshgrid(cx, cy, indexing="xy")

    inside = np.ones(gx.shape, dtype=bool)
    f_values = []
    for i in range(3):
        ax, ay = xy[i]
        dx = xy[(i + 1) % 3][0] - ax
        dy = xy[(i + 1) % 3][1] - ay
        f = dx * (gy - ay) - dy * (gx - ax)
        f_signed = sign * f
        # Top-left rule (y-down): boundary belongs to horizontal edges
        # going +x and to edges going -y, for the orientation-normalized
        # triangle.
        dxn, dyn = sign * dx, sign * dy
        top_left = (dyn == 0.0 and dxn > 0.0) or dyn < 0.0
        if top_left:
            inside &= f_signed >= 0.0
        else:
            inside &= f_signed > 0.0
        f_values.append(f)
    if not inside.any():
        return None

    iy, ix = np.nonzero(inside)
    # Barycentric weights: F_i / area2 is the weight of vertex i+2.
    w2 = f_values[0][iy, ix] / area2
    w0 = f_values[1][iy, ix] / area2
    w1 = f_values[2][iy, ix] / area2
    pz = w0 * z[0] + w1 * z[1] + w2 * z[2]
    return px[ix], py[iy], pz


def rasterize_triangles(
    xy: np.ndarray, z: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan-convert a triangle batch one triangle at a time."""
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    tris: list[np.ndarray] = []
    for t in range(xy.shape[0]):
        result = rasterize_triangle(xy[t], z[t], width, height)
        if result is None:
            continue
        px, py, pz = result
        xs.append(px)
        ys.append(py)
        zs.append(pz)
        tris.append(np.full(px.shape[0], t, dtype=np.int64))
    if not xs:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(zs),
        np.concatenate(tris),
    )


def earlyz_test(
    pixel: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential LESS test against the running per-pixel minimum."""
    n = pixel.shape[0]
    passed = np.zeros(n, dtype=bool)
    z_buffer: dict[int, float] = {}
    visible: dict[int, int] = {}
    for k in range(n):
        p = int(pixel[k])
        depth = float(z[k])
        if depth < z_buffer.get(p, 1.0):
            passed[k] = True
            z_buffer[p] = depth
            visible[p] = k
    return passed, np.array(
        [visible[p] for p in sorted(visible)], dtype=np.int64
    )
