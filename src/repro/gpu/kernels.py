"""The per-pixel hot loops of a frame: rasterize and early-Z.

The pipeline spends most of its time in four loops: edge-function
rasterization, the early-Z depth test, ZEB sorted insertion and the
Z-Overlap FF-Stack traversal.  This module holds the first two as pure
functions over typed arrays; the other two are
:func:`repro.rbcd.zeb.build_zeb` (a rank-based keep-the-M-nearest
filter) and :func:`repro.rbcd.overlap.analyze_tile` (a lock-step walk
of every list at once).

``rasterize_triangles(xy, z, width, height)``
    ``xy`` is ``(T, 3, 2)`` float64 screen coordinates, ``z`` is
    ``(T, 3)`` float64 vertex depths.  Returns ``(px, py, pz, tri)``:
    integer pixel coordinates, interpolated depths, and the producing
    triangle index, in canonical order: triangle ascending, then
    row-major (row, then column) over the pixels each triangle covers.
``earlyz_test(pixel, z)``
    ``pixel`` is ``(N,) int64`` flat pixel indices and ``z`` the
    matching depths, both in arrival order.  Returns ``(passed,
    visible)``: the ``(N,)`` bool mask of fragments passing a LESS test
    against the running per-pixel minimum (buffer cleared to 1.0), and
    the int64 index of each pixel's last passing fragment, in ascending
    pixel order, one per pixel with a pass.

All four are bit-identical to the hardware-literal scalar walkers kept
as test oracles (``tests/gpu/kernel_oracle.py``,
``tests/rbcd/zeb_oracle.py``, ``tests/rbcd/zoverlap_oracle.py``):
the same IEEE operations in the same per-element order.

* The batched rasterizer evaluates the *same* IEEE-754 expressions as
  the per-triangle scalar loop, elementwise, but only where it must.
  Each triangle's raster box holds the rows and columns whose pixel
  centre lies within ``_SPAN_EPS`` (2^-8 px) of its float bounding box,
  clamped to the screen (:func:`_centre_range`); triangles with no such
  centre drop out.  A centre farther out is outside the triangle, so
  the box drops only fragments that rounding on a sliver would accept;
  the margin keeps those of a vertex an ulp past a centre.  Each
  (triangle, row) of the box gets a tight conservative column span:
  the scanline's edge crossings, widened by ``_SPAN_EPS`` and clamped
  one-sidedly into the box (:func:`_row_spans` derives the bound).
  Rows with an empty span drop out before any per-row work.  Each
  edge's row term ``dx * (gy - ay)`` is computed once per (triangle,
  row), the rest per pixel.
* Each edge value as computed is monotone in the column, so a row
  whose two end columns are covered is covered throughout and is
  emitted as one run untested (:func:`_end_runs`); every other row
  tests each column of its span.  Fragments come out triangle-, then
  row-, then column-ascending — a subset of the scalar loop's
  raster-box order — so equal values arrive in equal order.
* Early-Z replaces the sequential per-fragment scan with a segmented
  exclusive prefix-min over the pixel-sorted stream: a doubling
  (Hillis-Steele) scan in ``ceil(log2(max overdraw))`` passes over
  contiguous memory.  The stable sort is one in-place sort of distinct
  keys, each pixel packed above its fragment's index
  (:func:`_pixel_order`).  Comparisons are the same exact float LESS, and
  ``min`` is exact, so the order in which minima combine cannot change
  a decision.

Rows and their span pixels are processed in bounded chunks (~256k
rows, ~1M span pixels); per-row and per-candidate arrays are allocated
fresh.
Frame-sized arrays — per-fragment temporaries and the rasterizer's
outputs — come from :mod:`repro.gpu.scratch`: inside a frame they reuse
the thread's buffers, so a warm frame allocates almost nothing
frame-sized; called outside a frame, the kernels return fresh arrays.
Slots ``tmp.*`` hold temporaries only, dead when a kernel returns
(early-Z's ``passed`` mask until its caller has read it).
"""

from __future__ import annotations

import numpy as np

from repro.gpu import scratch

# Upper bound on span pixels (and so on fragments) per chunk.
_MAX_CANDIDATES = 1 << 20
# Upper bound on (triangle, row) spans materialized per chunk.
_MAX_ROWS = 1 << 18
# Vertex coordinates below which span and run arithmetic is bounded
# (_row_spans); triangles beyond it test every raster-box column.
_SPAN_MAX_COORD = 2.0**24
# How far each span end reaches past its computed crossing, and the
# raster box past the bounding box, in pixels.
_SPAN_EPS = 2.0**-8

# The rasterizer's outputs (px, py, pz, tri): the scratch slots of the
# FragmentSoup columns they become, and their dtypes.
_OUTPUTS = (
    ("frag.x", np.int32),
    ("frag.y", np.int32),
    ("frag.z", np.float64),
    ("frag.tri_index", np.int64),
)

_EMPTY = tuple(np.empty(0, dtype=dtype) for _, dtype in _OUTPUTS)


def triangle_bounds(xy):
    """Each triangle's float bounding box ``(min_x, max_x, min_y,
    max_y)``, four ``(T,)`` arrays.

    Elementwise over the three vertex columns: ``axis=1`` reductions
    over the strided ``(T, 3)`` views cost ~20x more (640 against 30 us
    for 5.3k triangles), more than rasterizing them when they are
    small.
    """
    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    return (
        np.minimum(np.minimum(vx[:, 0], vx[:, 1]), vx[:, 2]),
        np.maximum(np.maximum(vx[:, 0], vx[:, 1]), vx[:, 2]),
        np.minimum(np.minimum(vy[:, 0], vy[:, 1]), vy[:, 2]),
        np.maximum(np.maximum(vy[:, 0], vy[:, 1]), vy[:, 2]),
    )


def _centre_range(lo, hi, size):
    """First and last pixel index whose centre lies within ``_SPAN_EPS``
    of ``[lo, hi]``, clamped to ``[0, size - 1]``; first > last when
    there is none.  The raster box of a triangle, axis by axis."""
    first = np.maximum(np.ceil(lo - 0.5 - _SPAN_EPS), 0.0)
    last = np.minimum(np.floor(hi - 0.5 + _SPAN_EPS), float(size - 1))
    return first.astype(np.int64), last.astype(np.int64)


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
    _SPAN_EPS``.  They start at the raster box and only tighten, so
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


def _gather(values, rows):
    """``values[rows]``: a view for a slice, else in the gather slot."""
    if isinstance(rows, slice):
        return values[rows]
    out = scratch.empty("tmp.4", rows.shape[0], values.dtype)
    return np.take(values, rows, out=out, mode="clip")


def _edge_value(term, rows, gx, out):
    """One edge's value at pixel centres ``gx`` on ``rows``, in ``out``.

    ``term`` is the edge's per-row ``(c, dy, ax, top_left)``, with ``c =
    dx * (gy - ay)`` the row-constant half of the scalar loop's ``dx *
    (gy - ay) - dy * (gx - ax)``; the rest is evaluated per pixel,
    operation for operation.  ``rows`` indexes the per-row arrays and
    broadcasts against ``gx``.
    """
    c, dy, ax, _ = term
    f = np.subtract(gx, _gather(ax, rows), out=out)
    np.multiply(_gather(dy, rows), f, out=f)
    return np.subtract(_gather(c, rows), f, out=f)


def _inside(terms, sign, rows, gx):
    """Top-left-rule inside test of pixel centres ``gx`` on ``rows``."""
    s = sign[rows]
    inside = True
    f = scratch.empty("tmp.2", gx.size, np.float64).reshape(gx.shape)
    for term in terms:
        _edge_value(term, rows, gx, f)
        np.multiply(s, f, out=f)
        inside = inside & np.where(term[3][rows], f >= 0.0, f > 0.0)
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


def _row_columns(count, offset, start, total):
    """Each fragment's row, and its column as a float, when row ``k``
    emits ``count[k]`` consecutive columns from ``start[k]`` at
    ``offset[k]``.

    Both are running sums of per-fragment steps: the row steps at each
    row's first fragment, and the column steps by one within a row and
    from the previous row's last column to the next row's first.  Every
    partial sum is a column index, so the float sums are exact.
    """
    full = np.flatnonzero(count)
    at = offset[full]
    row = scratch.empty("tmp.0", total, np.int64)
    row.fill(0)
    row[at] = np.diff(full, prepend=0)
    np.cumsum(row, out=row)
    col = scratch.empty("tmp.1", total, np.float64)
    col.fill(1.0)
    last = start[full] + count[full] - 1
    col[at] = start[full] - np.r_[0, last[:-1]]
    np.cumsum(col, out=col)
    return row, col


def _raster_rows(out, z, area2, sign, edges, row_edges, tame, tri, y, lo, hi):
    """Fragments of the rows ``(tri, y)`` within their spans ``[lo, hi]``.

    Runs (:func:`_end_runs`) and candidate-tested rows merge in (row,
    column) order through per-row offsets; then edge values,
    barycentrics and depth are computed once per emitted fragment.  The
    fragments go to the leading entries of the ``out`` columns ``(px,
    py, pz, tri)``; returns how many.
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
        return 0
    offset = np.cumsum(count) - count
    start = np.zeros(num_rows, dtype=np.int64)
    start[runs] = first
    row, col = _row_columns(count, offset, start, total)
    # Candidate-tested rows take their kept columns, in place.
    kept_offset = offset - (np.cumsum(kept) - kept)
    col[np.arange(keep.shape[0]) + kept_offset[kept_row]] = cand_col[keep]

    px, py, pz, kt = (column[:total] for column in out)
    np.take(tri, row, out=kt, mode="clip")
    np.take(y.astype(np.int32), row, out=py, mode="clip")
    px[...] = col
    gx = np.add(col, 0.5, out=col)
    a2 = scratch.empty("tmp.3", total, np.float64)
    np.take(area2, kt, out=a2, mode="clip")
    # Barycentric weights: F_i / area2 is the weight of vertex i+2.
    # pz = w0 * z0 + w1 * z1 + w2 * z2, summed left to right, so edges
    # 1, 2 and 0 are evaluated in turn.  (take on a column view gathers
    # ~3x faster than z[kt, i].)
    f = scratch.empty("tmp.2", total, np.float64)
    for vertex, edge in enumerate((1, 2, 0)):
        w = _edge_value(terms[edge], row, gx, pz if vertex == 0 else f)
        np.divide(w, a2, out=w)
        np.multiply(w, _gather(z[:, vertex], kt), out=w)
        if vertex:
            pz += w
    return total


def _reserve(out, filled, n):
    """The output columns, sized for ``n`` fragments, keeping the
    ``filled`` already emitted into ``out``."""
    grown = [scratch.empty(name, n, dtype) for name, dtype in _OUTPUTS]
    for new, old in zip(grown, out or ()):
        if not np.may_share_memory(new, old):
            new[:filled] = old[:filled]
    return grown


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

    min_x, max_x, min_y, max_y = triangle_bounds(xy)
    x0, x1 = _centre_range(min_x, max_x, width)
    y0, y1 = _centre_range(min_y, max_y, height)
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
    # fragments column-ascending: a subset of the raster-box order,
    # so emission order matches the scalar loop.
    out = None
    filled = 0
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
        span = hi - lo + 1
        # A span bounds its row's fragments.
        out = _reserve(out, filled, filled + int(span.sum()))
        for c, d in _bounded_runs(span, _MAX_CANDIDATES):
            filled += _raster_rows(
                [column[filled:] for column in out], z, area2, sign, edges,
                [(ax[c:d], rel_y[c:d]) for ax, rel_y in row_edges], tame,
                row_tri[c:d], row_y[c:d], lo[c:d], hi[c:d],
            )

    if filled == 0:
        return _EMPTY
    return tuple(column[:filled] for column in out)


def _segmented_prefix_min(values, keys):
    """Inclusive running minimum of ``values`` within each run of equal
    ``keys`` (``keys`` sorted, so each run is one contiguous segment),
    computed in place in ``values``.

    A doubling (Hillis-Steele) scan: after the pass with shift ``d``
    every element holds the minimum of the ``2d`` elements ending at
    it, cut at its segment's start, so ``ceil(log2(longest segment))``
    passes over contiguous memory finish the scan.  An element takes
    its partner ``d`` back only when both share a key, which for sorted
    keys is exactly when its position in the segment is at least ``d``.
    """
    run = values
    n = run.shape[0]
    same = scratch.empty("tmp.5", n, np.bool_)
    low = scratch.empty("tmp.4", n, run.dtype)
    d = 1
    while d < n:
        step = np.equal(keys[d:], keys[:-d], out=same[: n - d])
        if not step.any():
            break
        np.minimum(run[d:], run[:-d], out=low[: n - d])
        np.copyto(run[d:], low[: n - d], where=step)
        d *= 2
    return run


def _pixel_order(pixel):
    """The stable ascending order of ``pixel``, and the sorted pixels.

    Each fragment's pixel is packed above its index into one int64
    key.  The keys are distinct, so one in-place sort of any kind gives
    exactly the stable order, and unpacking the sorted keys gives both
    arrays.
    """
    n = pixel.shape[0]
    shift = max(n - 1, 1).bit_length()
    if pixel.min() < 0 or int(pixel.max()) >> (63 - shift):
        raise ValueError(
            f"pixel indices must lie in [0, 2**{63 - shift}) to sort "
            f"{n} fragments"
        )
    key = scratch.empty("tmp.0", n, np.int64)
    order = scratch.empty("tmp.1", n, np.int64)
    order.fill(1)
    order[0] = 0
    np.cumsum(order, out=order)  # 0, 1, ..., n - 1
    np.left_shift(pixel, shift, out=key, dtype=np.int64)
    key |= order
    key.sort()
    np.bitwise_and(key, (1 << shift) - 1, out=order)
    np.right_shift(key, shift, out=key)
    return order, key


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
    Pixel indices must be non-negative and small enough to pack with
    the fragment count into an int64 (:func:`_pixel_order`).
    """
    n = pixel.shape[0]
    passed = scratch.empty("tmp.7", n, np.bool_)
    passed.fill(False)
    if n == 0:
        return passed, np.empty(0, dtype=np.int64)

    order, sp = _pixel_order(pixel)
    sz = scratch.empty("tmp.2", n, z.dtype)
    np.take(z, order, out=sz, mode="clip")

    shifted = scratch.empty("tmp.3", n, np.float64)
    shifted.fill(1.0)  # the z-buffer clear value
    same = scratch.empty("tmp.5", n - 1, np.bool_)
    np.equal(sp[1:], sp[:-1], out=same)
    np.copyto(shifted[1:], sz[:-1], where=same)
    sorted_pass = np.less(
        sz, _segmented_prefix_min(shifted, sp),
        out=scratch.empty("tmp.6", n, np.bool_),
    )
    passed[order] = sorted_pass

    # A pass is its pixel's last when the next pass lies at another pixel.
    at = np.flatnonzero(sorted_pass)
    keys = scratch.empty("tmp.2", at.shape[0], sp.dtype)
    np.take(sp, at, out=keys, mode="clip")
    last = np.ones(at.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    return passed, order[at[last]]
