"""RBCDUnit tests: tile processing, coordinates, fallback, limits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import GPUConfig
from repro.rbcd.unit import RBCDUnit, _multi_object_lists, compute_tile
from repro.rbcd.zeb import ZEBTile, build_zeb
from tests.rbcd.tile_oracle import tile_batch

CFG = GPUConfig().with_screen(64, 32)  # 4 x 2 tiles


def one_tile(config, tile_index, *fragments):
    """compute_tile over a batch holding just this tile."""
    result = compute_tile(config, tile_batch((tile_index, *fragments)))
    assert result.tile_index.tolist() == [tile_index]
    return result


def colliding_tile_fragments(x0=0, y0=0):
    """Fragments of two overlapping objects on one pixel (global coords)."""
    x = np.array([x0 + 3] * 4, dtype=np.int32)
    y = np.array([y0 + 5] * 4, dtype=np.int32)
    z = np.array([0.1, 0.2, 0.3, 0.4])
    oid = np.array([1, 2, 1, 2], dtype=np.int64)  # [1 [2 ]1 ]2 : case 2
    front = np.array([True, True, False, False])
    return x, y, z, oid, front


class TestProcessTile:
    def test_pair_detected_with_global_coordinates(self):
        unit = RBCDUnit(CFG)
        # Tile 5 of a 4-wide grid is at tile coords (1, 1): origin (16, 16).
        x, y, z, oid, front = colliding_tile_fragments(16, 16)
        unit.absorb(one_tile(CFG, 5, x, y, z, oid, front))
        assert (1, 2) in unit.report
        (contact,) = unit.report.contacts[next(iter(unit.report.pairs))]
        assert (contact.x, contact.y) == (19, 21)
        assert contact.z_front == pytest.approx(0.2, abs=1e-4)
        assert contact.z_back == pytest.approx(0.3, abs=1e-4)

    def test_counters_accumulate_across_tiles(self):
        unit = RBCDUnit(CFG)
        batch = tile_batch(
            (0, *colliding_tile_fragments(0, 0)),
            (1, *colliding_tile_fragments(16, 0)),
        )
        unit.absorb(compute_tile(CFG, batch))
        assert unit.tiles.zeb.insertions == 8
        assert unit.tiles.insertions.tolist() == [4, 4]
        assert unit.report.pair_records_written == 2
        assert unit.report.x.tolist() == [3, 19]  # tile-schedule order

    def test_next_frame_replaces_state(self):
        unit = RBCDUnit(CFG)
        unit.absorb(one_tile(CFG, 0, *colliding_tile_fragments()))
        empty = np.empty(0, dtype=np.int32)
        unit.absorb(one_tile(
            CFG, 0, empty, empty, np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        ))
        assert unit.tiles.zeb.insertions == 0
        assert len(unit.report) == 0

    def test_cycle_outputs(self):
        unit = RBCDUnit(CFG)
        result = one_tile(CFG, 0, *colliding_tile_fragments())
        unit.absorb(result)
        assert result.insertion_cycles.tolist() == [4.0]
        assert result.overlap_cycles[0] > 0

    def test_empty_tile_costs_nothing(self):
        unit = RBCDUnit(CFG)
        empty = np.empty(0, dtype=np.int32)
        result = one_tile(
            CFG, 0, empty, empty, np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )
        unit.absorb(result)
        assert result.overlap_cycles.tolist() == [0.0]
        assert result.insertion_cycles.tolist() == [0.0]

    def test_oversized_object_id_rejected(self):
        unit = RBCDUnit(CFG)
        x, y, z, oid, front = colliding_tile_fragments()
        oid = oid.copy()
        oid[0] = 1 << 13  # exceeds the 13-bit id field
        with pytest.raises(ValueError):
            unit.absorb(one_tile(CFG, 0, x, y, z, oid, front))

    def test_oversized_id_in_second_tile_names_that_tiles_largest_id(self):
        # The first offending tile in schedule order is tile 1; its
        # largest id is reported, not the first bad id nor tile 2's.
        x, y, z, oid, front = colliding_tile_fragments(16, 0)
        bad = oid.copy()
        bad[0], bad[2] = 1 << 13, (1 << 13) + 5
        worse = oid.copy()
        worse[1] = 1 << 20
        batch = tile_batch(
            (0, *colliding_tile_fragments(0, 0)),
            (1, x, y, z, bad, front),
            (2, x + 16, y, z, worse, front),
        )
        with pytest.raises(
            ValueError,
            match=r"^object id 8197 exceeds the 13-bit ZEB id field$",
        ):
            compute_tile(CFG, batch)


class TestMultiObjectFilter:
    def make_tile(self, rows):
        pixel, z, oid, front = [], [], [], []
        for p, elements in rows:
            for zc, o in elements:
                pixel.append(p)
                z.append(zc)
                oid.append(o)
                front.append(True)
        return build_zeb(
            np.array(pixel), np.array(z), np.array(oid),
            np.array(front, dtype=bool), CFG.rbcd, CFG.tile_pixels,
        )

    def test_single_object_lists_skipped(self):
        tile = self.make_tile([(0, [(0, 1), (1, 1)]), (1, [(0, 1), (1, 2)])])
        mask = _multi_object_lists(tile)
        assert mask.tolist() == [False, True]

    def test_filter_never_drops_pair_producing_lists(self):
        # Any list that could produce a pair has >= 2 distinct ids.
        unit = RBCDUnit(CFG)
        result = one_tile(CFG, 0, *colliding_tile_fragments())
        unit.absorb(result)
        assert result.analyzed_lists.tolist() == [1]
        assert result.overlap.pair_records == 1

    def test_overlap_cycles_scale_with_contested_lists_only(self):
        unit = RBCDUnit(CFG)
        # 20 single-object pixels + 1 contested pixel.
        x = np.array(list(range(10)) * 2 + [12] * 4, dtype=np.int32)
        y = np.zeros(24, dtype=np.int32)
        z = np.concatenate([np.linspace(0.1, 0.9, 20), [0.1, 0.2, 0.3, 0.4]])
        oid = np.array([1] * 20 + [1, 2, 1, 2], dtype=np.int64)
        front = np.array([True, False] * 10 + [True, True, False, False])
        result = one_tile(CFG, 0, x, y, z, oid, front)
        unit.absorb(result)
        assert result.analyzed_lists.tolist() == [1]
        assert result.analyzed_elements.tolist() == [4]


def multi_object_any(zeb):
    """The multi-object filter as one ``any`` over the (P, L) matrix."""
    if zeb.non_empty_lists == 0:
        return np.zeros(0, dtype=bool)
    cols = np.arange(zeb.z_codes.shape[1])
    valid = cols[None, :] < zeb.counts[:, None]
    first = zeb.object_ids[:, 0]
    return ((zeb.object_ids != first[:, None]) & valid).any(axis=1)


def lists_tile(counts, object_ids):
    """A ZEB holding the given (P, L) lists; entries past ``counts`` pad."""
    object_ids = np.asarray(object_ids, dtype=np.int64).reshape(len(counts), -1)
    return ZEBTile(
        pixel_index=np.arange(len(counts), dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        z_codes=np.zeros(object_ids.shape, dtype=np.int64),
        object_ids=object_ids,
        is_front=np.ones(object_ids.shape, dtype=bool),
    )


class TestMultiObjectDifferential:
    """The column-wise filter against one ``any`` over the list matrix."""

    @pytest.mark.parametrize("counts, ids, expected", [
        # Padding past counts differs from the list's id: ignored.
        ([1, 2], [[3, 9, 9], [3, 3, 9]], [False, False]),
        # One-element lists, whatever their padding.
        ([1, 1, 1], [[0], [5], [8191]], [False, False, False]),
        # All-same-id lists of every length.
        ([1, 2, 3], [[4, 4, 4]] * 3, [False, False, False]),
        # The first differing id sits at the last valid slot.
        ([3, 2], [[1, 1, 2], [7, 6, 6]], [True, True]),
    ])
    def test_edge_lists(self, counts, ids, expected):
        tile = lists_tile(counts, ids)
        assert _multi_object_lists(tile).tolist() == expected
        assert multi_object_any(tile).tolist() == expected

    def test_empty_zeb(self):
        assert _multi_object_lists(ZEBTile.empty()).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_any_over_lists(self, data):
        rows = data.draw(st.integers(1, 40))
        length = data.draw(st.integers(1, 10))
        counts = data.draw(st.lists(
            st.integers(1, length), min_size=rows, max_size=rows
        ))
        ids = data.draw(st.lists(
            st.integers(0, 3), min_size=rows * length,
            max_size=rows * length,
        ))
        tile = lists_tile(counts, ids)
        np.testing.assert_array_equal(
            _multi_object_lists(tile), multi_object_any(tile)
        )


class TestFallback:
    def test_overflow_rate_property(self):
        config = CFG.with_rbcd(list_length=1)
        unit = RBCDUnit(config)
        x = np.array([0, 0, 0], dtype=np.int32)
        y = np.zeros(3, dtype=np.int32)
        unit.absorb(one_tile(config, 0, x, y, np.array([0.1, 0.2, 0.3]),
                                 np.array([1, 2, 3]), np.ones(3, dtype=bool)))
        assert unit.overflow_rate == pytest.approx(2.0 / 3.0)

    def test_cpu_fallback_threshold(self):
        config = CFG.with_rbcd(list_length=1, cpu_fallback_overflow_rate=0.5)
        unit = RBCDUnit(config)
        x = np.array([0, 0, 0], dtype=np.int32)
        y = np.zeros(3, dtype=np.int32)
        unit.absorb(one_tile(config, 0, x, y, np.array([0.1, 0.2, 0.3]),
                                 np.array([1, 2, 3]), np.ones(3, dtype=bool)))
        assert unit.wants_cpu_fallback()

    def test_no_fallback_by_default(self):
        unit = RBCDUnit(CFG)
        unit.absorb(one_tile(CFG, 0, *colliding_tile_fragments()))
        assert not unit.wants_cpu_fallback()
