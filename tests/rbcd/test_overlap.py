"""Vectorized Z-Overlap Test vs the per-pixel hardware reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import RBCDConfig
from repro.rbcd.overlap import OverlapResult, analyze_pixel_list, analyze_tile
from repro.rbcd.zeb import build_zeb


def tile_from_lists(lists, config):
    """Build a ZEBTile from explicit per-pixel (z, id, front) lists."""
    pixel, z, oid, front = [], [], [], []
    for pixel_index, elements in lists:
        for zc, o, f in elements:
            pixel.append(pixel_index)
            z.append(zc)
            oid.append(o)
            front.append(f)
    return build_zeb(
        np.array(pixel, dtype=np.int64),
        np.array(z, dtype=np.int64),
        np.array(oid, dtype=np.int64),
        np.array(front, dtype=bool),
        config,
        256,
    )


def normalize_pairs(result: OverlapResult, row_to_pixel):
    return sorted(
        (int(row_to_pixel[r]), int(a), int(b), int(zf), int(zb))
        for r, a, b, zf, zb in zip(
            result.pair_row,
            result.pair_id_a,
            result.pair_id_b,
            result.pair_z_front,
            result.pair_z_back,
        )
    )


element_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # pixel
        st.integers(min_value=0, max_value=20),  # z
        st.integers(min_value=0, max_value=3),   # id
        st.booleans(),
    ),
    max_size=60,
)


class TestVectorizedEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(element_lists, st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=8))
    def test_matches_reference(self, frags, m, t_entries):
        config = RBCDConfig(list_length=m, z_bits=18, id_bits=13,
                            ff_stack_entries=t_entries)
        if not frags:
            return
        pixel = np.array([f[0] for f in frags], dtype=np.int64)
        z = np.array([f[1] for f in frags], dtype=np.int64)
        oid = np.array([f[2] for f in frags], dtype=np.int64)
        front = np.array([f[3] for f in frags], dtype=bool)
        zeb = build_zeb(pixel, z, oid, front, config, 256)

        vec = analyze_tile(zeb, config)
        vec_pairs = normalize_pairs(vec, zeb.pixel_index)

        ref_pairs = []
        ref_elements = 0
        ref_overflows = 0
        ref_unmatched = 0
        for row in range(zeb.non_empty_lists):
            n = zeb.counts[row]
            ref = analyze_pixel_list(
                zeb.z_codes[row, :n],
                zeb.object_ids[row, :n],
                zeb.is_front[row, :n],
                config,
            )
            ref_pairs.extend(
                normalize_pairs(ref, {0: zeb.pixel_index[row]})
            )
            ref_elements += ref.elements_read
            ref_overflows += ref.stack_overflows
            ref_unmatched += ref.unmatched_backfaces

        assert vec_pairs == sorted(ref_pairs)
        assert vec.elements_read == ref_elements
        assert vec.stack_overflows == ref_overflows
        assert vec.unmatched_backfaces == ref_unmatched


class TestTileLevel:
    def test_independent_pixels(self):
        cfg = RBCDConfig()
        # Pixel 0: colliding A/B; pixel 5: disjoint A/B.
        tile = tile_from_lists(
            [
                (0, [(0, 1, True), (1, 2, True), (2, 1, False), (3, 2, False)]),
                (5, [(0, 1, True), (1, 1, False), (2, 2, True), (3, 2, False)]),
            ],
            cfg,
        )
        result = analyze_tile(tile, cfg)
        pairs = normalize_pairs(result, tile.pixel_index)
        assert len(pairs) == 1
        assert pairs[0][0] == 0  # only the colliding pixel reports

    def test_empty_tile(self):
        from repro.rbcd.zeb import ZEBTile

        result = analyze_tile(ZEBTile.empty(), RBCDConfig())
        assert result.pair_records == 0
        assert result.elements_read == 0

    def test_elements_read_counts_all(self):
        cfg = RBCDConfig()
        tile = tile_from_lists(
            [(0, [(0, 1, True), (1, 1, False)]), (3, [(0, 2, True)])], cfg
        )
        result = analyze_tile(tile, cfg)
        assert result.elements_read == 3

    def test_ragged_lists_handled(self):
        cfg = RBCDConfig()
        tile = tile_from_lists(
            [
                (0, [(0, 1, True)]),
                (1, [(0, 1, True), (1, 2, True), (2, 1, False), (3, 2, False)]),
            ],
            cfg,
        )
        result = analyze_tile(tile, cfg)
        assert result.pair_records == 1
