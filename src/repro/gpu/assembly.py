"""Primitive assembly: clipping, viewport transform, face culling.

This stage turns a frame's clip-space vertices into a *screen-space
triangle soup* — flat numpy arrays carrying, per triangle, its pixel
coordinates, depths, object id, facing, and the paper's
``tagged-to-be-culled`` bit.

Face culling follows Section 3.3: for non-collisionable draws, culled
faces are removed here (conventional early FC); for collisionable draws
the cull is *deferred* — the face is kept, tagged, rasterized into the
RBCD unit, and filtered out before Early-Z.

The whole frame is assembled in one pass: every draw's vertices are
outcoded together, and the faces that cross the frustum are clipped
together by a batched Sutherland-Hodgman over padded polygons.  The
soup stays draw-major, and within a draw the unclipped faces come first
in face order, then each clipped face's fan in face order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.commands import CullMode
from repro.gpu.config import GPUConfig
from repro.gpu.shading import ShadedDraw
from repro.gpu.stats import GPUStats

# Minimum w kept by the clipper (guards the perspective divide).
_W_EPS = 1e-6
# Screen-space triangles smaller than this (in squared pixels of doubled
# area) are dropped as degenerate.
_DEGENERATE_AREA2 = 1e-12

# The six frustum planes in homogeneous coordinates: dot(plane, v) >= 0
# keeps the vertex.  v = (x, y, z, w).  Plane 2k bounds axis k from
# below and plane 2k + 1 from above (see _plane_distance).
_CLIP_PLANES = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],   # x >= -w
        [-1.0, 0.0, 0.0, 1.0],  # x <= w
        [0.0, 1.0, 0.0, 1.0],   # y >= -w
        [0.0, -1.0, 0.0, 1.0],  # y <= w
        [0.0, 0.0, 1.0, 1.0],   # z >= -w
        [0.0, 0.0, -1.0, 1.0],  # z <= w
    ]
)

# Which faces each cull mode removes: (front faces, back faces).
_CULLED_FACES = {
    CullMode.NONE: (False, False),
    CullMode.BACK: (False, True),
    CullMode.FRONT: (True, False),
    CullMode.FRONT_AND_BACK: (True, True),
}


@dataclass
class TriangleSoup:
    """Screen-space triangles ready for binning and rasterization.

    All arrays share the leading triangle dimension ``T`` and preserve
    submission order (the order primitives enter the raster pipeline).
    """

    xy: np.ndarray        # (T, 3, 2) pixel coordinates (x right, y down)
    z: np.ndarray         # (T, 3) depth in [0, 1] (0 = near plane)
    object_id: np.ndarray  # (T,) int64; -1 for non-collisionable
    front: np.ndarray     # (T,) bool — front-facing (CCW before y-flip)
    tagged: np.ndarray    # (T,) bool — tagged-to-be-culled (deferred FC)
    draw_index: np.ndarray  # (T,) int64

    @property
    def count(self) -> int:
        return self.xy.shape[0]

    @staticmethod
    def empty() -> "TriangleSoup":
        return TriangleSoup(
            xy=np.empty((0, 3, 2)),
            z=np.empty((0, 3)),
            object_id=np.empty(0, dtype=np.int64),
            front=np.empty(0, dtype=bool),
            tagged=np.empty(0, dtype=bool),
            draw_index=np.empty(0, dtype=np.int64),
        )


def _plane_distance(v: np.ndarray, plane: int) -> np.ndarray:
    """``dot(_CLIP_PLANES[plane], v)`` over the last axis of ``v``.

    Every coefficient is 0 or ±1, so the dot is one rounded add or
    subtract of w and one coordinate; spelling it out keeps it exact
    without relying on a matmul's summation order.
    """
    axis = v[..., plane // 2]
    w = v[..., 3]
    return w + axis if plane % 2 == 0 else w - axis


def _clip_stage(poly, count, plane):
    """One Sutherland-Hodgman stage over a batch of padded polygons.

    ``poly`` is (C, W, 4) with ``count[c]`` valid vertices in row ``c``.
    ``plane`` is an index into ``_CLIP_PLANES``, or ``None`` for the
    ``w >= _W_EPS`` stage.  Per row and in vertex order, an inside
    vertex is emitted, then ``cur + t * (nxt - cur)`` if its edge to the
    next vertex crosses the boundary.  Returns the clipped polygons, as
    wide as their longest row, and their counts; a convex polygon gains
    at most one vertex.
    """
    slot = np.arange(poly.shape[1])
    valid = slot < count[:, None]
    nxt = np.where(slot + 1 < count[:, None], slot + 1, 0)
    if plane is None:
        keep = poly[:, :, 3] >= _W_EPS
    else:
        keep = _plane_distance(poly, plane) >= 0
    keep &= valid
    crosses = valid & (keep != np.take_along_axis(keep, nxt, axis=1))
    emitted = keep.astype(np.int64) + crosses
    new_count = emitted.sum(axis=1)
    at = np.cumsum(emitted, axis=1) - emitted
    out = np.zeros((poly.shape[0], int(new_count.max(initial=0)), 4))
    rows, cols = np.nonzero(keep)
    out[rows, at[rows, cols]] = poly[rows, cols]

    rows, cols = np.nonzero(crosses)
    cur = poly[rows, cols]
    to = poly[rows, nxt[rows, cols]]
    if plane is None:
        t = (_W_EPS - cur[:, 3]) / (to[:, 3] - cur[:, 3])
    else:
        d_cur = _plane_distance(cur, plane)
        t = d_cur / (d_cur - _plane_distance(to, plane))
    out[rows, at[rows, cols] + keep[rows, cols]] = cur + t[:, None] * (to - cur)
    return out, new_count


def _clip_polygons(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip (C, 3, 4) homogeneous triangles to the frustum, all at once.

    Returns the padded polygons (C, W, 4) and their vertex counts (C,).
    The first stage clips against ``w >= _W_EPS`` so the later divides
    are safe, then one stage per frustum plane: seven stages, so
    W <= 3 + 7 = 10 for a convex polygon.
    """
    poly, count = tris, np.full(tris.shape[0], 3, dtype=np.int64)
    for plane in (None, *range(len(_CLIP_PLANES))):
        poly, count = _clip_stage(poly, count, plane)
    return poly, count


def _fan(poly: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate padded polygons as fans ``(p0, p[k+1], p[k+2])``.

    Returns the (K, 3, 4) triangles, row by row and k ascending, and the
    row each came from.  Rows with fewer than 3 vertices give none.
    """
    per_row = np.maximum(count - 2, 0)
    row = np.repeat(np.arange(count.shape[0]), per_row)
    k = np.arange(row.shape[0]) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    corners = np.stack([np.zeros_like(k), k + 1, k + 2], axis=1)
    return poly[row[:, None], corners], row


def _to_screen(clip: np.ndarray, config: GPUConfig) -> np.ndarray:
    """Clip coords (N, 4) -> screen (N, 3): x, y in pixels, z in [0,1].

    y grows downward (raster convention); z = 0 at the near plane.
    """
    w = clip[:, 3]
    out = np.empty((clip.shape[0], 3))
    out[:, 0] = (clip[:, 0] / w + 1.0) * 0.5 * config.screen_width
    out[:, 1] = (1.0 - clip[:, 1] / w) * 0.5 * config.screen_height
    out[:, 2] = (clip[:, 2] / w + 1.0) * 0.5
    return out


def _facing_and_validity(xy: np.ndarray):
    """Per-triangle facing and degeneracy from the screen-space area.

    In screen space (y down) a triangle that was CCW in NDC has
    *negative* doubled area, so front-facing == area2 < 0.
    """
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    front = area2 < 0
    degenerate = np.abs(area2) <= _DEGENERATE_AREA2
    return front, degenerate


def _frustum_triangles(
    shaded_draws: list[ShadedDraw], stats: GPUStats
) -> tuple[np.ndarray, np.ndarray]:
    """Outcode and clip a frame's faces in clip space.

    Returns the (T, 3, 4) triangles left inside the frustum and the
    draw each came from: every unclipped face in frame order, then
    every clipped face's fan in frame order.
    """
    # The frame's vertices in one array, every face re-indexed into it
    # (draw after draw), and each face's draw.
    verts = np.concatenate([s.clip_positions for s in shaded_draws])
    bases = np.cumsum([0] + [s.clip_positions.shape[0] for s in shaded_draws])
    faces = np.concatenate(
        [s.draw.mesh.faces + base for s, base in zip(shaded_draws, bases)]
    )
    face_draw = np.repeat(
        np.arange(len(shaded_draws)),
        [s.draw.mesh.faces.shape[0] for s in shaded_draws],
    )
    stats.triangles_assembled += faces.shape[0]

    # Per-vertex outcodes: bit p is set outside frustum plane p, bit 6
    # below w = _W_EPS.  A face is frustum-culled when all three vertices
    # lie outside one plane, and clipped when any bit is set otherwise.
    outcode = (verts[:, 3] < _W_EPS).view(np.uint8) << 6
    for plane in range(len(_CLIP_PLANES)):
        outcode |= (_plane_distance(verts, plane) < 0.0).view(np.uint8) << plane
    code0, code1, code2 = outcode[faces].T
    all_out = (code0 & code1 & code2 & 0x3F) != 0
    inside = (code0 | code1 | code2) == 0
    clipped = np.flatnonzero(~inside & ~all_out)

    poly, count = _clip_polygons(verts[faces[clipped]])
    fans, fan_row = _fan(poly, count)
    stats.triangles_frustum_culled += int(all_out.sum()) + int((count < 3).sum())
    stats.triangles_clipped += fans.shape[0]

    n_inside = int(inside.sum())
    tris = np.empty((n_inside + fans.shape[0], 3, 4))
    np.take(verts, faces[inside], axis=0, out=tris[:n_inside])
    tris[n_inside:] = fans
    return tris, np.concatenate([face_draw[inside], face_draw[clipped][fan_row]])


def assemble(
    shaded_draws: list[ShadedDraw],
    config: GPUConfig,
    stats: GPUStats,
    deferred_culling: bool = True,
) -> TriangleSoup:
    """Primitive assembly for a whole frame.

    With ``deferred_culling=False`` the pipeline behaves like the
    baseline GPU: collisionable draws get conventional early face
    culling (used to measure the paper's overhead figures).
    """
    if not shaded_draws:
        return TriangleSoup.empty()
    tri_clip, tri_draw = _frustum_triangles(shaded_draws, stats)
    screen = _to_screen(tri_clip.reshape(-1, 4), config).reshape(-1, 3, 3)
    del tri_clip  # the frame's largest array; the rest needs only screen
    front, degenerate = _facing_and_validity(screen[:, :, :2])
    stats.triangles_degenerate += int(degenerate.sum())

    # Per-draw state, looked up per triangle.
    draws = [s.draw for s in shaded_draws]
    culled = np.array([_CULLED_FACES[d.cull_mode] for d in draws], dtype=bool)
    defers = np.array([d.collisionable and deferred_culling for d in draws], dtype=bool)
    to_cull = np.where(front, culled[tri_draw, 0], culled[tri_draw, 1]) & ~degenerate
    tagged = to_cull & defers[tri_draw]
    stats.triangles_tagged_to_be_culled += int(tagged.sum())
    stats.triangles_face_culled += int(to_cull.sum()) - int(tagged.sum())

    # Keep the survivors, draw-major: a stable sort by draw puts each
    # draw's unclipped faces before its fans, both in face order.
    kept = np.flatnonzero(~degenerate & (tagged | ~to_cull))
    kept = kept[np.argsort(tri_draw[kept], kind="stable")]
    kept_draw = tri_draw[kept]
    object_ids = np.array(
        [-1 if d.object_id is None else d.object_id for d in draws], dtype=np.int64
    )
    draw_indices = np.array([s.draw_index for s in shaded_draws], dtype=np.int64)
    soup = TriangleSoup(
        xy=screen[kept, :, :2],
        z=screen[kept, :, 2],
        object_id=object_ids[kept_draw],
        front=front[kept],
        tagged=tagged[kept],
        draw_index=draw_indices[kept_draw],
    )
    stats.triangles_binned += soup.count
    return soup
