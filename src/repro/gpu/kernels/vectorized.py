"""The vectorized (default) kernel backend: batched numpy hot loops.

Bit-identical to the reference backend by construction, not by luck:

* The batched rasterizer evaluates the *same* IEEE-754 expressions as
  the per-triangle scalar loop — same subtractions, same products, same
  divisions, elementwise — over a flat array of span candidate pixels,
  then compresses with a boolean mask.  Each (triangle, row) gets a
  conservative column span: the pixel-centre scanline's crossings with
  the edges, widened by one pixel and clamped to the bounding box, so
  every pixel the edge tests would accept is still tested.  Candidates
  are laid out triangle-ascending, then row-ascending, then column-
  ascending — a subset of the reference's bounding-box raster order —
  so equal values arrive in equal order.
* Early-Z replaces the sequential per-fragment scan with a segmented
  exclusive prefix-min over the pixel-sorted stream; comparisons are
  the same exact float LESS, each fragment is visited once.
* ZEB insertion and the Z-Overlap traversal reuse the proven
  frame-wide builders (:func:`repro.rbcd.zeb.build_zeb`, a rank-based
  keep-the-M-nearest filter, and :func:`repro.rbcd.overlap.analyze_tile`,
  a lock-step walk of every list at once).

Spans and their candidate pixels are processed in bounded chunks
(~256k rows, ~1M candidates) so peak memory stays flat on large frames.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernels import KernelBackend
from repro.rbcd.overlap import analyze_tile
from repro.rbcd.zeb import build_zeb

# Upper bound on span candidate pixels materialized per chunk.
_MAX_CANDIDATES = 1 << 20
# Upper bound on (triangle, row) spans materialized per chunk.
_MAX_ROWS = 1 << 18
# Spans trust the edge-crossing arithmetic only while every vertex
# coordinate stays below this magnitude: its rounding error is then far
# under the one-pixel widening.  Triangles beyond it test whole
# bounding-box rows.
_SPAN_MAX_COORD = 2.0**40

_EMPTY = (
    np.empty(0, dtype=np.int32),
    np.empty(0, dtype=np.int32),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
)


def _bounded_runs(counts, limit):
    """Consecutive ``[start, stop)`` runs of ``counts`` summing to at
    most ``limit`` (a lone item over the limit is a run of its own)."""
    cum = np.cumsum(counts)
    n = counts.shape[0]
    start = 0
    while start < n:
        base = int(cum[start - 1]) if start else 0
        stop = int(np.searchsorted(cum, base + limit, side="right"))
        stop = min(max(stop, start + 1), n)
        yield start, stop
        start = stop


def _ramps(first, counts):
    """Concatenated integer ranges ``first[k] .. first[k] + counts[k] - 1``."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        first - starts, counts
    )


def _row_spans(xy, sign, tri, y, x0, x1):
    """Conservative pixel-column span ``[lo, hi]`` of each (triangle, row).

    On scanline ``gy = y + 0.5`` an edge with orientation-normalized
    ``sdy > 0`` admits pixel centres left of its crossing ``xc``, one
    with ``sdy < 0`` those right of it, and a horizontal edge sets no
    bound.  Each bound is widened by one pixel past the exact one and
    clamped to the triangle's bounding box; a non-finite crossing
    leaves the box bound in place.  ``lo > hi`` is an empty row.
    """
    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    tame = np.abs(xy).max(axis=(1, 2)) < _SPAN_MAX_COORD
    gy = y.astype(np.float64) + 0.5
    lo = np.full(tri.shape[0], -np.inf)
    hi = np.full(tri.shape[0], np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(3):
            j = (i + 1) % 3
            dy = vy[:, j] - vy[:, i]
            slope = np.where(tame, (vx[:, j] - vx[:, i]) / dy, np.nan)
            sdy = (sign * dy)[tri]
            # Pixel column whose centre sits on the crossing: xc - 0.5.
            c = vx[tri, i] - 0.5 + slope[tri] * (gy - vy[tri, i])
            hi = np.where(sdy > 0.0, np.fmin(hi, np.floor(c) + 1.0), hi)
            lo = np.where(sdy < 0.0, np.fmax(lo, np.ceil(c) - 1.0), lo)
    box_lo = x0[tri].astype(np.float64)
    box_hi = x1[tri].astype(np.float64)
    lo = np.clip(lo, box_lo, box_hi).astype(np.int64)
    hi = np.clip(hi, box_lo, box_hi).astype(np.int64)
    return lo, hi


def _raster_chunk(xy, z, tri_of, cx, cy, area2, sign):
    """Edge-test candidate pixels ``(cx, cy)`` of triangles ``tri_of``."""
    gx = cx.astype(np.float64) + 0.5
    gy = cy.astype(np.float64) + 0.5

    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    s = sign[tri_of]
    inside = np.ones(tri_of.shape[0], dtype=bool)
    f_values = []
    for i in range(3):
        j = (i + 1) % 3
        # Per-triangle edge setup, then gathered per candidate — the
        # same subtractions the scalar loop performs once per triangle.
        dx_t = vx[:, j] - vx[:, i]
        dy_t = vy[:, j] - vy[:, i]
        dxn = sign * dx_t
        dyn = sign * dy_t
        top_left_t = ((dyn == 0.0) & (dxn > 0.0)) | (dyn < 0.0)

        ax = vx[tri_of, i]
        ay = vy[tri_of, i]
        f = dx_t[tri_of] * (gy - ay) - dy_t[tri_of] * (gx - ax)
        f_signed = s * f
        on_edge_ok = np.where(top_left_t[tri_of], f_signed >= 0.0, f_signed > 0.0)
        inside &= on_edge_ok
        f_values.append(f)

    keep = np.flatnonzero(inside)
    if keep.shape[0] == 0:
        return None
    kt = tri_of[keep]
    a2 = area2[kt]
    # Barycentric weights: F_i / area2 is the weight of vertex i+2.
    w2 = f_values[0][keep] / a2
    w0 = f_values[1][keep] / a2
    w1 = f_values[2][keep] / a2
    pz = w0 * z[kt, 0] + w1 * z[kt, 1] + w2 * z[kt, 2]
    return (
        cx[keep].astype(np.int32),
        cy[keep].astype(np.int32),
        pz,
        kt,
    )


def rasterize_triangles(
    xy: np.ndarray, z: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan-convert a whole triangle batch over per-row span candidates."""
    num_tris = xy.shape[0]
    if num_tris == 0:
        return _EMPTY

    e1 = xy[:, 1, :] - xy[:, 0, :]
    e2 = xy[:, 2, :] - xy[:, 0, :]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    sign = np.where(area2 > 0.0, 1.0, -1.0)

    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    x0 = np.maximum(np.floor(vx.min(axis=1)), 0.0).astype(np.int64)
    x1 = np.minimum(np.ceil(vx.max(axis=1)), float(width - 1)).astype(np.int64)
    y0 = np.maximum(np.floor(vy.min(axis=1)), 0.0).astype(np.int64)
    y1 = np.minimum(np.ceil(vy.max(axis=1)), float(height - 1)).astype(np.int64)
    live = np.flatnonzero((area2 != 0.0) & (x1 >= x0) & (y1 >= y0))
    if live.shape[0] == 0:
        return _EMPTY
    rows = y1[live] - y0[live] + 1

    # Candidates run triangle-ascending, then row-ascending, then
    # column-ascending: a subset of the bounding-box raster order, so
    # emission order matches the reference backend.
    pieces = []
    for a, b in _bounded_runs(rows, _MAX_ROWS):
        row_tri = np.repeat(live[a:b], rows[a:b])
        row_y = _ramps(y0[live[a:b]], rows[a:b])
        lo, hi = _row_spans(xy, sign, row_tri, row_y, x0, x1)
        cols = np.maximum(hi - lo + 1, 0)
        for c, d in _bounded_runs(cols, _MAX_CANDIDATES):
            n = cols[c:d]
            piece = _raster_chunk(
                xy,
                z,
                np.repeat(row_tri[c:d], n),
                _ramps(lo[c:d], n),
                np.repeat(row_y[c:d], n),
                area2,
                sign,
            )
            if piece is not None:
                pieces.append(piece)

    if not pieces:
        return _EMPTY
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(parts) for parts in zip(*pieces))


def earlyz_pass_mask(pixel: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Segmented exclusive prefix-min LESS test, one visit per fragment.

    Fragments are stably sorted by pixel (keeping arrival order within
    each segment), then a lock-step walk over in-segment positions
    updates all segments' running minima; the Python-level loop runs
    max-overdraw times.
    """
    n = pixel.shape[0]
    passed = np.zeros(n, dtype=bool)
    if n == 0:
        return passed

    order = np.argsort(pixel, kind="stable")
    sp = pixel[order]
    sz = z[order]

    new_segment = np.r_[True, sp[1:] != sp[:-1]]
    starts = np.flatnonzero(new_segment)
    seg_ends = np.r_[starts[1:], n]
    seg_lengths = seg_ends - starts

    excl_min = np.empty(n, dtype=np.float64)
    running = np.full(starts.shape[0], 1.0)  # z-buffer clear value
    alive = np.arange(starts.shape[0])
    for k in range(int(seg_lengths.max())):
        alive = alive[k < seg_lengths[alive]]
        idx = starts[alive] + k
        excl_min[idx] = running[alive]
        running[alive] = np.minimum(running[alive], sz[idx])

    passed[order] = sz < excl_min
    return passed


BACKEND = KernelBackend(
    name="vectorized",
    rasterize_triangles=rasterize_triangles,
    earlyz_pass_mask=earlyz_pass_mask,
    zeb_insert=build_zeb,
    zoverlap_traverse=analyze_tile,
)
