"""ZEB sorted-insertion tests: hardware reference vs vectorized builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import RBCDConfig
from repro.rbcd.zeb import ZEBTile, build_zeb, insert_sequential

TILE_PIXELS = 256


def build_both(fragments, config):
    """Run both implementations over the same arrival sequence."""
    seq = insert_sequential(fragments, config, TILE_PIXELS)
    if fragments:
        pixel, z, oid, front = map(np.array, zip(*fragments))
    else:
        pixel = z = oid = np.empty(0, dtype=np.int64)
        front = np.empty(0, dtype=bool)
    vec = build_zeb(pixel, z, oid, np.array(front, dtype=bool), config,
                    TILE_PIXELS)
    return seq, vec


def assert_tiles_equal(a: ZEBTile, b: ZEBTile):
    assert a.pixel_index.tolist() == b.pixel_index.tolist()
    assert a.counts.tolist() == b.counts.tolist()
    for row in range(a.non_empty_lists):
        n = a.counts[row]
        assert a.z_codes[row, :n].tolist() == b.z_codes[row, :n].tolist()
        assert a.object_ids[row, :n].tolist() == b.object_ids[row, :n].tolist()
        assert a.is_front[row, :n].tolist() == b.is_front[row, :n].tolist()
    assert a.insertions == b.insertions
    assert a.overflow_events == b.overflow_events
    assert a.spare_allocations == b.spare_allocations


fragments_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),      # pixel (few: force conflicts)
        st.integers(min_value=0, max_value=30),     # z code (ties likely)
        st.integers(min_value=0, max_value=4),      # object id
        st.booleans(),                              # front face
    ),
    max_size=80,
)


class TestSortedInsertion:
    def test_single_insert(self):
        cfg = RBCDConfig()
        seq, vec = build_both([(3, 100, 1, True)], cfg)
        assert_tiles_equal(seq, vec)
        assert seq.counts.tolist() == [1]

    def test_sorted_order_maintained(self):
        cfg = RBCDConfig()
        frags = [(0, z, 1, True) for z in (50, 10, 30, 20, 40)]
        seq, _ = build_both(frags, cfg)
        assert seq.z_codes[0, :5].tolist() == [10, 20, 30, 40, 50]

    def test_ties_keep_arrival_order(self):
        cfg = RBCDConfig()
        frags = [(0, 10, 1, True), (0, 10, 2, False), (0, 10, 3, True)]
        seq, vec = build_both(frags, cfg)
        assert seq.object_ids[0, :3].tolist() == [1, 2, 3]
        assert_tiles_equal(seq, vec)

    def test_overflow_keeps_nearest(self):
        cfg = RBCDConfig().__class__(list_length=2, z_bits=18, id_bits=13)
        frags = [(0, 30, 1, True), (0, 10, 2, True), (0, 20, 3, True)]
        seq, vec = build_both(frags, cfg)
        assert seq.z_codes[0, :2].tolist() == [10, 20]
        assert seq.overflow_events == 1
        assert_tiles_equal(seq, vec)

    def test_overflow_drops_new_when_farthest(self):
        cfg = RBCDConfig(list_length=2, z_bits=18, id_bits=13)
        frags = [(0, 10, 1, True), (0, 20, 2, True), (0, 30, 3, True)]
        seq, vec = build_both(frags, cfg)
        assert seq.z_codes[0, :2].tolist() == [10, 20]
        assert seq.overflow_events == 1
        assert_tiles_equal(seq, vec)

    def test_insertions_count_attempts(self):
        cfg = RBCDConfig(list_length=1, z_bits=18, id_bits=13)
        frags = [(0, 10, 1, True)] * 5
        seq, vec = build_both(frags, cfg)
        assert seq.insertions == 5
        assert seq.overflow_events == 4
        assert_tiles_equal(seq, vec)

    def test_pixel_bounds_validated(self):
        cfg = RBCDConfig()
        with pytest.raises(ValueError):
            insert_sequential([(TILE_PIXELS, 0, 0, True)], cfg, TILE_PIXELS)

    def test_empty(self):
        seq, vec = build_both([], RBCDConfig())
        assert seq.non_empty_lists == vec.non_empty_lists == 0


class TestSpareEntries:
    def test_spares_extend_capacity(self):
        cfg = RBCDConfig(list_length=1, z_bits=18, id_bits=13,
                         spare_entries_per_tile=2)
        frags = [(0, 30, 1, True), (0, 10, 2, True), (0, 20, 3, True)]
        seq, vec = build_both(frags, cfg)
        assert seq.counts[0] == 3           # all kept via spares
        assert seq.spare_allocations == 2
        assert seq.overflow_events == 0
        assert_tiles_equal(seq, vec)

    def test_pool_exhaustion_falls_back_to_overflow(self):
        cfg = RBCDConfig(list_length=1, z_bits=18, id_bits=13,
                         spare_entries_per_tile=1)
        frags = [(0, 30, 1, True), (0, 20, 2, True), (0, 10, 3, True)]
        seq, vec = build_both(frags, cfg)
        assert seq.counts[0] == 2
        assert seq.spare_allocations == 1
        assert seq.overflow_events == 1
        assert seq.z_codes[0, :2].tolist() == [10, 20]
        assert_tiles_equal(seq, vec)

    def test_pool_shared_across_pixels_in_arrival_order(self):
        cfg = RBCDConfig(list_length=1, z_bits=18, id_bits=13,
                         spare_entries_per_tile=1)
        frags = [
            (0, 10, 1, True), (1, 10, 2, True),
            (0, 20, 3, True),  # takes the one spare
            (1, 20, 4, True),  # overflow: dropped (farther)
        ]
        seq, vec = build_both(frags, cfg)
        assert_tiles_equal(seq, vec)
        assert seq.counts.tolist() == [2, 1]


class TestEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(fragments_strategy, st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=4))
    def test_vectorized_matches_hardware(self, frags, m, spares):
        cfg = RBCDConfig(list_length=m, z_bits=18, id_bits=13,
                         spare_entries_per_tile=spares)
        seq, vec = build_both(frags, cfg)
        assert_tiles_equal(seq, vec)
