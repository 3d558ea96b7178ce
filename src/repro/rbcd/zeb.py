"""Z-depth Extended Buffer (ZEB) with hardware sorted insertion.

Section 3.4: the ZEB holds, per pixel of the current tile, a list of up
to M elements kept front-to-back ordered by a comparator-array
insertion.  When an insertion finds a full list, the element that would
fall off the far end is dropped (the new element, if it is the
farthest) — so after any arrival sequence the list holds the M
*nearest* fragments seen, which is what the vectorized builder exploits.

Two implementations are provided:

* :func:`insert_sequential` — the literal 3-step hardware algorithm
  (read list, parallel compare + mux shift, write back), one fragment at
  a time.  Used as the executable specification in tests.
* :func:`build_zeb` — a numpy builder that produces bit-identical
  final lists, plus the overflow statistics, for every tile of a frame
  at once (fragments keyed by tile and local pixel).

The Section 5.3 extension (a pool of spare entries per tile,
dynamically lengthening overflowing lists) is supported by both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.config import RBCDConfig


@dataclass
class ZEBTile:
    """Final ZEB contents for one tile (only non-empty lists stored).

    ``lists_*`` arrays are (P, L) where P is the number of non-empty
    pixel lists and L is the longest list (M, or more when spare
    entries were granted).  Entries at positions >= ``counts[p]`` are
    padding.  Lists are sorted front-to-back (ascending z code), ties
    in arrival order.  A frame-wide build holds every tile's lists in
    one instance, ``pixel_index`` keyed by tile and local pixel (see
    :func:`build_zeb`).
    """

    pixel_index: np.ndarray   # (P,) local pixel index within the tile
    counts: np.ndarray        # (P,) valid elements per list
    z_codes: np.ndarray       # (P, L) quantized depths
    object_ids: np.ndarray    # (P, L)
    is_front: np.ndarray      # (P, L) bool
    insertions: int = 0       # insertion attempts (fragments received)
    overflow_events: int = 0  # attempts that found a full list (no spare)
    spare_allocations: int = 0

    @property
    def non_empty_lists(self) -> int:
        return int(self.pixel_index.shape[0])

    @property
    def elements(self) -> int:
        return int(self.counts.sum())

    @staticmethod
    def empty() -> "ZEBTile":
        z = np.empty(0, dtype=np.int64)
        return ZEBTile(
            pixel_index=z,
            counts=z.copy(),
            z_codes=np.empty((0, 0), dtype=np.int64),
            object_ids=np.empty((0, 0), dtype=np.int64),
            is_front=np.empty((0, 0), dtype=bool),
        )


# ---------------------------------------------------------------------------
# Reference (hardware-literal) path
# ---------------------------------------------------------------------------


@dataclass
class _PixelList:
    """One pixel's sorted list, as the hardware holds it."""

    z: list[int] = field(default_factory=list)
    oid: list[int] = field(default_factory=list)
    front: list[bool] = field(default_factory=list)
    capacity: int = 0


def insert_sequential(
    fragments: list[tuple[int, int, int, bool]],
    config: RBCDConfig,
    tile_pixels: int,
) -> ZEBTile:
    """Insert fragments one at a time, exactly as the hardware would.

    ``fragments`` is a list of ``(pixel_index, z_code, object_id,
    is_front)`` in arrival order.  Returns the final tile contents and
    statistics.  This is the executable specification; use
    :func:`build_zeb` for speed.
    """
    m = config.list_length
    spare_pool = config.spare_entries_per_tile
    lists: dict[int, _PixelList] = {}
    insertions = 0
    overflow_events = 0
    spare_allocations = 0

    for pixel, z_code, oid, front in fragments:
        if not 0 <= pixel < tile_pixels:
            raise ValueError(f"pixel index {pixel} outside tile of {tile_pixels}")
        insertions += 1  # every fragment triggers the read/compare step
        lst = lists.setdefault(pixel, _PixelList(capacity=m))
        if len(lst.z) >= lst.capacity:
            if spare_pool > 0:
                spare_pool -= 1
                spare_allocations += 1
                lst.capacity += 1
            else:
                overflow_events += 1
                if lst.z and z_code >= lst.z[-1]:
                    continue  # new element is the farthest: dropped
                # otherwise the current farthest element falls off below
        # Parallel less-than compare: position = first i with z < z[i];
        # equal depths keep arrival order (strict compare).
        pos = len(lst.z)
        for i, existing in enumerate(lst.z):
            if z_code < existing:
                pos = i
                break
        lst.z.insert(pos, z_code)
        lst.oid.insert(pos, oid)
        lst.front.insert(pos, front)
        if len(lst.z) > lst.capacity:
            lst.z.pop()
            lst.oid.pop()
            lst.front.pop()

    non_empty = sorted(p for p, lst in lists.items() if lst.z)
    if not non_empty:
        tile = ZEBTile.empty()
        tile.overflow_events = overflow_events
        tile.spare_allocations = spare_allocations
        return tile
    max_len = max(len(lists[p].z) for p in non_empty)
    count_p = len(non_empty)
    z = np.zeros((count_p, max_len), dtype=np.int64)
    oid_arr = np.full((count_p, max_len), -1, dtype=np.int64)
    front_arr = np.zeros((count_p, max_len), dtype=bool)
    counts = np.zeros(count_p, dtype=np.int64)
    for row, pixel in enumerate(non_empty):
        lst = lists[pixel]
        n = len(lst.z)
        counts[row] = n
        z[row, :n] = lst.z
        oid_arr[row, :n] = lst.oid
        front_arr[row, :n] = lst.front
    return ZEBTile(
        pixel_index=np.array(non_empty, dtype=np.int64),
        counts=counts,
        z_codes=z,
        object_ids=oid_arr,
        is_front=front_arr,
        insertions=insertions,
        overflow_events=overflow_events,
        spare_allocations=spare_allocations,
    )


# ---------------------------------------------------------------------------
# Vectorized path
# ---------------------------------------------------------------------------


def _arrival_ranks(keys: np.ndarray) -> np.ndarray:
    """How many earlier entries share each entry's key (0-based)."""
    n = keys.shape[0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    return rank


def overflow_arrivals(
    pixel: np.ndarray, config: RBCDConfig, tile_pixels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which arrivals find their list full: ``(overflowed, spared)`` masks.

    ``pixel`` keys each arrival by ``tile * tile_pixels + local pixel``
    (any tile numbering works: ``pixel // tile_pixels`` names the tile).
    The k-th arrival at a pixel finds a full list when ``k >= M``.  Each
    tile owns its spare pool: the first ``spare_entries_per_tile`` of
    its full-list arrivals, in arrival order, get a spare entry
    (``spared``); the rest are overflow events (``overflowed``).
    """
    full = _arrival_ranks(pixel) >= config.list_length
    spared = np.zeros_like(full)
    if config.spare_entries_per_tile > 0 and full.any():
        idx = np.flatnonzero(full)
        tile_rank = _arrival_ranks(pixel[idx] // tile_pixels)
        spared[idx[tile_rank < config.spare_entries_per_tile]] = True
    return full & ~spared, spared


def build_zeb(
    pixel: np.ndarray,
    z_codes: np.ndarray,
    object_id: np.ndarray,
    is_front: np.ndarray,
    config: RBCDConfig,
    tile_pixels: int,
) -> ZEBTile:
    """Build the final ZEB contents of one or more tiles at once.

    Inputs are parallel arrays in *arrival order*: pixel key (see
    :func:`overflow_arrivals`; a lone tile's local pixel index is its
    own key), quantized depth code, object id, and front/back flag.
    The result's lists are ordered by key, so a frame's tiles come out
    tile by tile, each keeping its own spare pool.

    Equivalent to :func:`insert_sequential` on each tile because sorted
    insertion with drop-farthest is a streaming "keep the M nearest"
    filter, and a spare entry lengthens its list by one.
    """
    pixel = np.asarray(pixel, dtype=np.int64)
    n = pixel.shape[0]
    if n == 0:
        return ZEBTile.empty()
    z_codes = np.asarray(z_codes, dtype=np.int64)
    object_id = np.asarray(object_id, dtype=np.int64)
    is_front = np.asarray(is_front, dtype=bool)
    overflowed, spared = overflow_arrivals(pixel, config, tile_pixels)

    # Keep, per pixel, the nearest `capacity` fragments; the stable
    # sort keeps equal depths in arrival order.  One sort on a packed
    # (pixel, depth) key is several times faster than np.lexsort, which
    # remains for negative values and keys too wide to pack in 63 bits.
    shift = int(z_codes.max()).bit_length()
    if (
        z_codes.min() >= 0
        and pixel.min() >= 0
        and int(pixel.max()).bit_length() + shift <= 62
    ):
        order = np.argsort(pixel << shift | z_codes, kind="stable")
    else:
        order = np.lexsort((z_codes, pixel))
    sorted_pixel = pixel[order]
    starts = np.flatnonzero(np.r_[True, sorted_pixel[1:] != sorted_pixel[:-1]])
    arrivals = np.diff(np.r_[starts, n])
    capacity = config.list_length + np.add.reduceat(
        spared[order].astype(np.int64), starts
    )
    counts = np.minimum(arrivals, capacity)
    pos_in_list = np.arange(n) - np.repeat(starts, arrivals)
    keep = pos_in_list < np.repeat(capacity, arrivals)
    kept = order[keep]

    num_rows = starts.shape[0]
    max_len = int(counts.max())
    rows = np.repeat(np.arange(num_rows), counts)
    cols = pos_in_list[keep]
    z_out = np.zeros((num_rows, max_len), dtype=np.int64)
    id_out = np.full((num_rows, max_len), -1, dtype=np.int64)
    front_out = np.zeros((num_rows, max_len), dtype=bool)
    z_out[rows, cols] = z_codes[kept]
    id_out[rows, cols] = object_id[kept]
    front_out[rows, cols] = is_front[kept]

    return ZEBTile(
        pixel_index=sorted_pixel[starts],
        counts=counts,
        z_codes=z_out,
        object_ids=id_out,
        is_front=front_out,
        insertions=n,
        overflow_events=int(overflowed.sum()),
        spare_allocations=int(spared.sum()),
    )


def overflow_events_by_pixel(
    pixel: np.ndarray, config: RBCDConfig, tile_pixels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel ZEB overflow events for an arrival stream.

    Same keys and accounting as :func:`build_zeb`, but keeps the
    *location* of each overflow event instead of summing.  Returns
    ``(pixels, events)`` covering only keys with at least one event;
    the forensics engine uses it to test whether a divergence's
    witness pixel ever dropped an element.
    """
    pixel = np.asarray(pixel, dtype=np.int64)
    overflowed, _ = overflow_arrivals(pixel, config, tile_pixels)
    pixels, events = np.unique(pixel[overflowed], return_counts=True)
    return pixels, events.astype(np.int64)
