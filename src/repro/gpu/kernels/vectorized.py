"""The vectorized (default) kernel backend: batched numpy hot loops.

Bit-identical to the reference backend by construction, not by luck:

* The batched rasterizer evaluates the *same* IEEE-754 expressions as
  the per-triangle scalar loop, elementwise, but only where it must.
  Each (triangle, row) gets a tight conservative column span: the
  scanline's edge crossings, widened by ``_SPAN_EPS`` (2^-8 px) and
  clamped one-sidedly into the bounding box (:func:`_row_spans`
  derives the bound).  Rows with an empty span drop out before any
  per-row work.  Each edge's row term ``dx * (gy - ay)`` is computed
  once per (triangle, row), the rest per pixel.
* Each edge value as computed is monotone in the column, so a row
  whose two end columns are covered is covered throughout and is
  emitted as one run untested (:func:`_end_runs`); every other row
  tests each column of its span.  Fragments come out triangle-, then
  row-, then column-ascending — a subset of the reference's
  bounding-box raster order — so equal values arrive in equal order.
* Early-Z replaces the sequential per-fragment scan with a segmented
  exclusive prefix-min over the pixel-sorted stream: a doubling
  (Hillis-Steele) scan in ``ceil(log2(max overdraw))`` passes over
  contiguous memory.  Comparisons are the same exact float LESS, and
  ``min`` is exact, so the order in which minima combine cannot change
  a decision.
* ZEB insertion and the Z-Overlap traversal reuse the proven
  frame-wide builders (:func:`repro.rbcd.zeb.build_zeb`, a rank-based
  keep-the-M-nearest filter, and :func:`repro.rbcd.overlap.analyze_tile`,
  a lock-step walk of every list at once).

Rows and their span pixels are processed in bounded chunks (~256k rows,
~1M span pixels) so peak memory stays flat on large frames.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernels import KernelBackend
from repro.rbcd.overlap import analyze_tile
from repro.rbcd.zeb import build_zeb

# Upper bound on span pixels (and so on fragments) per chunk.
_MAX_CANDIDATES = 1 << 20
# Upper bound on (triangle, row) spans materialized per chunk.
_MAX_ROWS = 1 << 18
# Vertex coordinates below which span and run arithmetic is bounded
# (_row_spans); triangles beyond it test every bounding-box column.
_SPAN_MAX_COORD = 2.0**24
# How far each span end reaches past its computed crossing, in pixels.
_SPAN_EPS = 2.0**-8

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


def _edge_setup(vx, vy, sign):
    """Per-triangle ``(dx, dy, sign * dy, top_left)`` of each edge
    ``i -> i+1``: the subtractions the scalar loop performs once per
    triangle, and its top-left rule (y-down) for the orientation-
    normalized triangle."""
    edges = []
    for i in range(3):
        j = (i + 1) % 3
        dx = vx[:, j] - vx[:, i]
        dy = vy[:, j] - vy[:, i]
        dxn = sign * dx
        dyn = sign * dy
        top_left = ((dyn == 0.0) & (dxn > 0.0)) | (dyn < 0.0)
        edges.append((dx, dy, dyn, top_left))
    return edges


def _row_spans(edges, row_edges, tame, tri, x0, x1):
    """Tight conservative pixel-column span ``[lo, hi]`` of each
    (triangle, row), as floats; ``lo > hi`` is an empty row.

    On scanline ``gy = y + 0.5`` an edge with orientation-normalized
    ``sdy > 0`` admits pixel centres left of its crossing, one with
    ``sdy < 0`` those right of it, and a horizontal edge sets no bound.
    With ``c`` the computed column whose centre sits on the crossing,
    the bounds are ``floor(c + eps)`` and ``ceil(c - eps)``, ``eps =
    _SPAN_EPS``.  They start at the bounding box and only tighten, so
    crossed-over bounds beyond a box edge stay empty; a non-finite or
    untame crossing sets none.  ``row_edges`` holds each edge's per-row
    ``(ax, r = gy - ay)``.

    Why ``eps`` suffices: take ``dx``, ``dy``, ``ax`` and ``r`` as
    computed — the edge test and the crossing read the same values —
    and let ``u = 2^-53``, ``T = (dx / dy) * r`` exactly, and ``X = col
    + 0.5 - ax``.  The test ``dx * r - dy * (col + 0.5 - ax)`` rounds
    three times before a final subtraction whose sign is exact, so it
    accepts only ``X <= T + 3.01u |T|`` (for ``sdy > 0``; mirrored for
    ``sdy < 0``).  The crossing ``(ax - 0.5) + (dx / dy) * r`` rounds
    four times, off by at most ``u (|ax| + 0.5 + |c|) + 2.01u |T|``.
    A tame triangle has every coordinate below ``M = _SPAN_MAX_COORD
    = 2^24``, so ``|ax|`` and every box column are below ``M``; where
    ``|T| > 4M`` the bound misses the box or no column passes, and
    otherwise the two errors sum to under ``32u M = 2^-24`` px, far
    below ``eps``.  Every accepted column is then below ``c + eps``,
    and ``floor`` of the rounded ``c + eps`` keeps it.  A tame
    triangle's nonzero ``dy`` are also normal floats: an underflowing
    product is off by up to ``2^-1075``, which the division by ``dy``
    turns into at most ``2^-53`` px.
    """
    lo = x0[tri].astype(np.float64)
    hi = x1[tri].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for (dx, dy, dyn, _), (ax, rel_y) in zip(edges, row_edges):
            slope = np.where(tame, dx / dy, np.nan)
            sdy = dyn[tri]
            c = ax - 0.5 + slope[tri] * rel_y
            hi = np.where(sdy > 0.0, np.fmin(hi, np.floor(c + _SPAN_EPS)), hi)
            lo = np.where(sdy < 0.0, np.fmax(lo, np.ceil(c - _SPAN_EPS)), lo)
    return lo, hi


def _edge_values(terms, rows, gx):
    """Each edge's value at pixel centres ``gx`` on ``rows``.

    ``terms`` holds each edge's per-row ``(c, dy, ax, top_left)``, with
    ``c = dx * (gy - ay)`` the row-constant half of the scalar loop's
    ``dx * (gy - ay) - dy * (gx - ax)``; the rest is evaluated per
    pixel, operation for operation (in place, to spare temporaries).
    ``rows`` indexes the per-row arrays and broadcasts against ``gx``.
    """
    values = []
    for c, dy, ax, _ in terms:
        f = gx - ax[rows]
        np.multiply(dy[rows], f, out=f)
        np.subtract(c[rows], f, out=f)
        values.append(f)
    return values


def _inside(terms, sign, rows, gx):
    """Top-left-rule inside test of pixel centres ``gx`` on ``rows``."""
    s = sign[rows]
    inside = True
    for f, (_, _, _, top_left) in zip(_edge_values(terms, rows, gx), terms):
        np.multiply(s, f, out=f)
        inside = inside & np.where(top_left[rows], f >= 0.0, f > 0.0)
    return inside


def _end_runs(ends, lo, hi):
    """Exact covered runs of the rows whose two end columns are covered.

    ``ends`` is the ``(2, rows)`` test of columns ``lo`` and ``hi``.  An
    edge's accepted columns are a prefix or a suffix of the row (its
    value is monotone in the column), so an edge that accepts both ends
    accepts every column between.  Returns those rows and their runs'
    ``first`` and ``last`` columns.
    """
    runs = np.flatnonzero(ends[0] & ends[1])
    return runs, lo[runs], hi[runs]


def _raster_rows(z, area2, sign, edges, row_edges, tame, tri, y, lo, hi):
    """Fragments of the rows ``(tri, y)`` within their spans ``[lo, hi]``.

    Runs (:func:`_end_runs`) and candidate-tested rows merge in (row,
    column) order through per-row offsets; then edge values,
    barycentrics and depth are computed once per emitted fragment.
    """
    row_sign = sign[tri]
    # Per (triangle, row): the row-constant half of each edge value.
    terms = [
        (dx[tri] * rel_y, dy[tri], ax, top_left[tri])
        for (dx, dy, _, top_left), (ax, rel_y) in zip(edges, row_edges)
    ]
    num_rows = tri.shape[0]

    ends = _inside(terms, row_sign, slice(None), np.stack((lo, hi)) + 0.5)
    ends &= tame[tri]
    runs, first, last = _end_runs(ends, lo, hi)

    tested = np.delete(np.arange(num_rows), runs)
    width = hi[tested] - lo[tested] + 1
    cand_row = np.repeat(tested, width)
    cand_col = _ramps(lo[tested], width)
    keep = np.flatnonzero(_inside(terms, row_sign, cand_row, cand_col + 0.5))
    kept_row = cand_row[keep]

    kept = np.bincount(kept_row, minlength=num_rows)
    count = kept.copy()
    count[runs] = last - first + 1
    total = int(count.sum())
    if total == 0:
        return None
    offset = np.cumsum(count) - count
    start = np.zeros(num_rows, dtype=np.int64)
    start[runs] = first
    row = np.repeat(np.arange(num_rows), count)
    col = np.arange(total, dtype=np.int64) + (start - offset)[row]
    # Candidate-tested rows take their kept columns, in place.
    kept_offset = offset - (np.cumsum(kept) - kept)
    col[np.arange(keep.shape[0]) + kept_offset[kept_row]] = cand_col[keep]

    kt = tri[row]
    f0, f1, f2 = _edge_values(terms, row, col + 0.5)
    a2 = area2[kt]
    # Barycentric weights: F_i / area2 is the weight of vertex i+2.
    w2 = np.divide(f0, a2, out=f0)
    w0 = np.divide(f1, a2, out=f1)
    w1 = np.divide(f2, a2, out=f2)
    # pz = w0 * z0 + w1 * z1 + w2 * z2, summed left to right.  (take
    # on a column view gathers ~3x faster than z[kt, i].)
    pz = np.multiply(w0, np.take(z[:, 0], kt), out=w0)
    pz += np.multiply(w1, np.take(z[:, 1], kt), out=w1)
    pz += np.multiply(w2, np.take(z[:, 2], kt), out=w2)
    return col.astype(np.int32), y[row].astype(np.int32), pz, kt


def rasterize_triangles(
    xy: np.ndarray, z: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan-convert a whole triangle batch over per-row spans."""
    if xy.shape[0] == 0:
        return _EMPTY

    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    e1 = xy[:, 1, :] - xy[:, 0, :]
    e2 = xy[:, 2, :] - xy[:, 0, :]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    sign = np.where(area2 > 0.0, 1.0, -1.0)

    # Elementwise over the three vertex columns: an axis=1 reduction
    # costs more than the rasterizing on frames of small triangles.
    min_x = np.minimum(np.minimum(vx[:, 0], vx[:, 1]), vx[:, 2])
    max_x = np.maximum(np.maximum(vx[:, 0], vx[:, 1]), vx[:, 2])
    min_y = np.minimum(np.minimum(vy[:, 0], vy[:, 1]), vy[:, 2])
    max_y = np.maximum(np.maximum(vy[:, 0], vy[:, 1]), vy[:, 2])
    x0 = np.maximum(np.floor(min_x), 0.0).astype(np.int64)
    x1 = np.minimum(np.ceil(max_x), float(width - 1)).astype(np.int64)
    y0 = np.maximum(np.floor(min_y), 0.0).astype(np.int64)
    y1 = np.minimum(np.ceil(max_y), float(height - 1)).astype(np.int64)
    live = np.flatnonzero((area2 != 0.0) & (x1 >= x0) & (y1 >= y0))
    if live.shape[0] == 0:
        return _EMPTY
    rows = y1[live] - y0[live] + 1
    edges = _edge_setup(vx, vy, sign)
    # Tame triangles: those whose span arithmetic _row_spans bounds.
    tame = (
        np.maximum(np.maximum(-min_x, max_x), np.maximum(-min_y, max_y))
        < _SPAN_MAX_COORD
    )
    for _, dy, _, _ in edges:
        tame &= (dy == 0.0) | (np.abs(dy) >= np.finfo(np.float64).tiny)

    # Rows run triangle-ascending, then row-ascending, and each row's
    # fragments column-ascending: a subset of the bounding-box raster
    # order, so emission order matches the reference backend.
    pieces = []
    for a, b in _bounded_runs(rows, _MAX_ROWS):
        row_tri = np.repeat(live[a:b], rows[a:b])
        row_y = _ramps(y0[live[a:b]], rows[a:b])
        gy = row_y.astype(np.float64) + 0.5
        # Each edge's start vertex per row: ax and gy - ay.
        row_edges = [
            (np.take(vx[:, i], row_tri), gy - np.take(vy[:, i], row_tri))
            for i in range(3)
        ]
        lo, hi = _row_spans(edges, row_edges, tame, row_tri, x0, x1)
        # Rows that can hold a fragment; their bounds lie in the box.
        held = np.flatnonzero(lo <= hi)
        row_tri, row_y = row_tri[held], row_y[held]
        row_edges = [(ax[held], rel_y[held]) for ax, rel_y in row_edges]
        lo, hi = lo[held].astype(np.int64), hi[held].astype(np.int64)
        for c, d in _bounded_runs(hi - lo + 1, _MAX_CANDIDATES):
            piece = _raster_rows(
                z, area2, sign, edges,
                [(ax[c:d], rel_y[c:d]) for ax, rel_y in row_edges], tame,
                row_tri[c:d], row_y[c:d], lo[c:d], hi[c:d],
            )
            if piece is not None:
                pieces.append(piece)

    if not pieces:
        return _EMPTY
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(parts) for parts in zip(*pieces))


def _segmented_prefix_min(values, keys):
    """Inclusive running minimum of ``values`` within each run of equal
    ``keys`` (``keys`` sorted, so each run is one contiguous segment).

    A doubling (Hillis-Steele) scan: after the pass with shift ``d``
    every element holds the minimum of the ``2d`` elements ending at
    it, cut at its segment's start, so ``ceil(log2(longest segment))``
    passes over contiguous memory finish the scan.  An element takes
    its partner ``d`` back only when both share a key, which for sorted
    keys is exactly when its position in the segment is at least ``d``.
    """
    run = values.copy()
    d = 1
    while d < run.shape[0]:
        same = keys[d:] == keys[:-d]
        if not same.any():
            break
        np.copyto(run[d:], np.minimum(run[d:], run[:-d]), where=same)
        d *= 2
    return run


def earlyz_test(
    pixel: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented exclusive prefix-min LESS test, one visit per fragment.

    Fragments are stably sorted by pixel (keeping arrival order within
    each segment); a fragment passes when its depth is below the
    minimum of the buffer's clear value 1.0 and every earlier depth at
    its pixel.  That exclusive minimum is the inclusive running minimum
    of the sorted depths shifted by one, with 1.0 at each segment
    start.  Each pixel's visible fragment is its segment's last pass.
    """
    n = pixel.shape[0]
    passed = np.zeros(n, dtype=bool)
    if n == 0:
        return passed, np.empty(0, dtype=np.int64)

    order = np.argsort(pixel, kind="stable")
    sp = pixel[order]
    sz = z[order]

    shifted = np.ones(n)  # 1.0: the z-buffer clear value
    np.copyto(shifted[1:], sz[:-1], where=sp[1:] == sp[:-1])
    sorted_pass = sz < _segmented_prefix_min(shifted, sp)
    passed[order] = sorted_pass

    # A pass is its pixel's last when the next pass lies at another pixel.
    at = np.flatnonzero(sorted_pass)
    keys = sp[at]
    last = np.ones(at.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    return passed, order[at[last]]


BACKEND = KernelBackend(
    name="vectorized",
    rasterize_triangles=rasterize_triangles,
    earlyz_test=earlyz_test,
    zeb_insert=build_zeb,
    zoverlap_traverse=analyze_tile,
)
