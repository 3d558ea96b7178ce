"""Reference primitive assembly: the per-draw loop with a scalar clipper.

A second, independent implementation of ``repro.gpu.assembly.assemble``,
kept as a test oracle.  It walks the frame one draw at a time, computes
outcodes with one ``einsum`` per draw and clips every face that needs it
with a per-face Python Sutherland-Hodgman loop, then maps, culls and
tags the draw's triangles and concatenates the per-draw soups.
``tests/gpu/test_assembly_oracle.py`` holds the frame-batched production
code to it byte for byte.

Known defect kept on purpose: ``_cull_decision`` treats any mode it
does not recognise as ``FRONT_AND_BACK``.  ``DrawCommand`` now rejects
a ``cull_mode`` that is not a ``CullMode``, so the differential suite
never reaches that branch.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.assembly import (
    _CLIP_PLANES,
    _DEGENERATE_AREA2,
    _W_EPS,
    TriangleSoup,
)
from repro.gpu.commands import CullMode
from repro.gpu.config import GPUConfig
from repro.gpu.shading import ShadedDraw
from repro.gpu.stats import GPUStats


def _concatenate(parts: list[TriangleSoup]) -> TriangleSoup:
    parts = [p for p in parts if p.count]
    if not parts:
        return TriangleSoup.empty()
    return TriangleSoup(
        xy=np.concatenate([p.xy for p in parts]),
        z=np.concatenate([p.z for p in parts]),
        object_id=np.concatenate([p.object_id for p in parts]),
        front=np.concatenate([p.front for p in parts]),
        tagged=np.concatenate([p.tagged for p in parts]),
        draw_index=np.concatenate([p.draw_index for p in parts]),
    )


def _clip_polygon_homogeneous(poly: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a homogeneous polygon to the frustum.

    ``poly`` is (N, 4); returns (M, 4) with M possibly 0.  Clipping in
    homogeneous space handles w <= 0 vertices correctly.
    """
    # First clip against w >= eps so the later divides are safe.
    out = []
    n = poly.shape[0]
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        cur_in = cur[3] >= _W_EPS
        nxt_in = nxt[3] >= _W_EPS
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = (_W_EPS - cur[3]) / (nxt[3] - cur[3])
            out.append(cur + t * (nxt - cur))
    poly = np.array(out)
    for plane in _CLIP_PLANES:
        if poly.shape[0] == 0:
            return poly
        dots = poly @ plane
        out = []
        n = poly.shape[0]
        for i in range(n):
            cur_d, nxt_d = dots[i], dots[(i + 1) % n]
            if cur_d >= 0:
                out.append(poly[i])
            if (cur_d >= 0) != (nxt_d >= 0):
                t = cur_d / (cur_d - nxt_d)
                out.append(poly[i] + t * (poly[(i + 1) % n] - poly[i]))
        poly = np.array(out) if out else np.empty((0, 4))
    return poly


def _to_screen(clip: np.ndarray, config: GPUConfig) -> np.ndarray:
    """Clip coords (N, 4) -> screen (N, 3): x, y in pixels, z in [0,1].

    y grows downward (raster convention); z = 0 at the near plane.
    """
    w = clip[:, 3]
    ndc = clip[:, :3] / w[:, None]
    out = np.empty((clip.shape[0], 3))
    out[:, 0] = (ndc[:, 0] + 1.0) * 0.5 * config.screen_width
    out[:, 1] = (1.0 - ndc[:, 1]) * 0.5 * config.screen_height
    out[:, 2] = (ndc[:, 2] + 1.0) * 0.5
    return out


def _facing_and_validity(xy: np.ndarray):
    """Per-triangle doubled signed area (screen space) and facing.

    In screen space (y down) a triangle that was CCW in NDC has
    *negative* doubled area, so front-facing == area2 < 0.
    """
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    front = area2 < 0
    degenerate = np.abs(area2) <= _DEGENERATE_AREA2
    return area2, front, degenerate


def _cull_decision(front: np.ndarray, mode: CullMode):
    """Boolean mask of faces the FC stage would cull."""
    if mode is CullMode.NONE:
        return np.zeros(front.shape, dtype=bool)
    if mode is CullMode.BACK:
        return ~front
    if mode is CullMode.FRONT:
        return front
    return np.ones(front.shape, dtype=bool)  # FRONT_AND_BACK


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
    parts: list[TriangleSoup] = []
    for shaded in shaded_draws:
        draw = shaded.draw
        clip = shaded.clip_positions
        face_clip = clip[draw.mesh.faces]  # (F, 3, 4)
        stats.triangles_assembled += face_clip.shape[0]

        # Outcodes: plane x vertex "outside" tests, vectorized.
        dots = np.einsum("pk,fvk->fpv", _CLIP_PLANES, face_clip)
        outside = dots < 0.0
        any_plane_all_out = outside.all(axis=2).any(axis=1)
        needs_clip = outside.any(axis=(1, 2)) & ~any_plane_all_out
        w_bad = (face_clip[:, :, 3] < _W_EPS).any(axis=1)
        needs_clip |= w_bad & ~any_plane_all_out
        inside = ~needs_clip & ~any_plane_all_out

        stats.triangles_frustum_culled += int(any_plane_all_out.sum())

        tri_clip_list = []
        if inside.any():
            tri_clip_list.append(face_clip[inside])
        for f_idx in np.nonzero(needs_clip)[0]:
            poly = _clip_polygon_homogeneous(face_clip[f_idx])
            if poly.shape[0] < 3:
                stats.triangles_frustum_culled += 1
                continue
            fan = np.stack(
                [
                    np.broadcast_to(poly[0], (poly.shape[0] - 2, 4)),
                    poly[1:-1],
                    poly[2:],
                ],
                axis=1,
            )
            tri_clip_list.append(fan)
            stats.triangles_clipped += fan.shape[0]
        if not tri_clip_list:
            continue
        tri_clip = np.concatenate(tri_clip_list)

        screen = _to_screen(tri_clip.reshape(-1, 4), config).reshape(-1, 3, 3)
        xy = screen[:, :, :2]
        z = screen[:, :, 2]
        area2, front, degenerate = _facing_and_validity(xy)

        keep = ~degenerate
        stats.triangles_degenerate += int(degenerate.sum())
        xy, z, front = xy[keep], z[keep], front[keep]
        if xy.shape[0] == 0:
            continue

        to_cull = _cull_decision(front, draw.cull_mode)
        if draw.collisionable and deferred_culling:
            tagged = to_cull
            stats.triangles_tagged_to_be_culled += int(to_cull.sum())
            keep2 = np.ones(xy.shape[0], dtype=bool)
        else:
            tagged = np.zeros(xy.shape[0], dtype=bool)
            stats.triangles_face_culled += int(to_cull.sum())
            keep2 = ~to_cull

        xy, z, front, tagged = xy[keep2], z[keep2], front[keep2], tagged[keep2]
        if xy.shape[0] == 0:
            continue

        count = xy.shape[0]
        oid = draw.object_id if draw.object_id is not None else -1
        parts.append(
            TriangleSoup(
                xy=xy,
                z=z,
                object_id=np.full(count, oid, dtype=np.int64),
                front=front,
                tagged=tagged,
                draw_index=np.full(count, shaded.draw_index, dtype=np.int64),
            )
        )

    soup = _concatenate(parts)
    stats.triangles_binned += soup.count
    return soup
