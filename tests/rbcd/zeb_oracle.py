"""Hardware-literal ZEB insertion, one fragment at a time.

The executable specification :func:`repro.rbcd.zeb.build_zeb` is held
to, kept as a test oracle: :func:`insert_sequential` runs the literal
3-step hardware algorithm (read list, parallel compare + mux shift,
write back) for one tile, spare pool included; :func:`zeb_insert` runs
it once per tile of a frame and stacks the tiles' lists in key order,
with ``build_zeb``'s signature, so the ``reference_kernels`` fixture
(``tests/conftest.py``) can put it in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.config import RBCDConfig
from repro.rbcd.zeb import ZEBTile


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
    statistics.
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


def zeb_insert(pixel, z_codes, object_id, is_front, config, tile_pixels):
    """One sorted insertion per fragment, in arrival order, into the ZEB
    of its tile (``pixel // tile_pixels``); tiles stack in key order,
    as in :func:`~repro.rbcd.zeb.build_zeb`."""
    pixel = np.asarray(pixel, dtype=np.int64)
    streams: dict[int, list] = {}
    for key, code, oid, front in zip(
        pixel.tolist(),
        np.asarray(z_codes).tolist(),
        np.asarray(object_id).tolist(),
        np.asarray(is_front).tolist(),
    ):
        tile, local = divmod(key, tile_pixels)
        streams.setdefault(tile, []).append((local, code, oid, front))
    return _stack_tiles(
        [
            (tile, insert_sequential(streams[tile], config, tile_pixels))
            for tile in sorted(streams)
        ],
        tile_pixels,
    )


def _stack_tiles(tiles, tile_pixels) -> ZEBTile:
    """One ZEB holding every ``(tile, ZEBTile)``'s lists, keyed by tile."""
    if not tiles:
        return ZEBTile.empty()
    width = max(zeb.z_codes.shape[1] for _, zeb in tiles)

    def padded(zeb, name, fill):
        block = getattr(zeb, name)
        pad = np.full((block.shape[0], width - block.shape[1]), fill, block.dtype)
        return np.concatenate([block, pad], axis=1)

    zebs = [zeb for _, zeb in tiles]
    return ZEBTile(
        pixel_index=np.concatenate(
            [tile * tile_pixels + zeb.pixel_index for tile, zeb in tiles]
        ),
        counts=np.concatenate([zeb.counts for zeb in zebs]),
        z_codes=np.concatenate([padded(zeb, "z_codes", 0) for zeb in zebs]),
        object_ids=np.concatenate([padded(zeb, "object_ids", -1) for zeb in zebs]),
        is_front=np.concatenate([padded(zeb, "is_front", False) for zeb in zebs]),
        insertions=sum(zeb.insertions for zeb in zebs),
        overflow_events=sum(zeb.overflow_events for zeb in zebs),
        spare_allocations=sum(zeb.spare_allocations for zeb in zebs),
    )
