"""RBCDUnit tests: tile processing, coordinates, fallback, limits."""

import numpy as np
import pytest

from repro.gpu.config import GPUConfig
from repro.rbcd.unit import RBCDUnit, _multi_object_lists, compute_tile
from repro.rbcd.zeb import build_zeb_tile

CFG = GPUConfig().with_screen(64, 32)  # 4 x 2 tiles


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
        unit.absorb(compute_tile(CFG, 5, x, y, z, oid, front))
        assert (1, 2) in unit.report
        (contact,) = unit.report.contacts[next(iter(unit.report.pairs))]
        assert (contact.x, contact.y) == (19, 21)
        assert contact.z_front == pytest.approx(0.2, abs=1e-4)
        assert contact.z_back == pytest.approx(0.3, abs=1e-4)

    def test_counters_accumulate_across_tiles(self):
        unit = RBCDUnit(CFG)
        unit.absorb(compute_tile(CFG, 0, *colliding_tile_fragments(0, 0)))
        unit.absorb(compute_tile(CFG, 1, *colliding_tile_fragments(16, 0)))
        assert unit.insertions == 8
        assert unit.report.pair_records_written == 2

    def test_reset_clears_state(self):
        unit = RBCDUnit(CFG)
        unit.absorb(compute_tile(CFG, 0, *colliding_tile_fragments()))
        unit.reset()
        assert unit.insertions == 0
        assert len(unit.report) == 0

    def test_cycle_outputs(self):
        unit = RBCDUnit(CFG)
        result = compute_tile(CFG, 0, *colliding_tile_fragments())
        unit.absorb(result)
        assert result.insertion_cycles == 4.0
        assert result.overlap_cycles > 0

    def test_empty_tile_costs_nothing(self):
        unit = RBCDUnit(CFG)
        empty = np.empty(0, dtype=np.int32)
        result = compute_tile(
            CFG, 0, empty, empty, np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )
        unit.absorb(result)
        assert result.overlap_cycles == 0.0
        assert result.insertion_cycles == 0.0

    def test_oversized_object_id_rejected(self):
        unit = RBCDUnit(CFG)
        x, y, z, oid, front = colliding_tile_fragments()
        oid = oid.copy()
        oid[0] = 1 << 13  # exceeds the 13-bit id field
        with pytest.raises(ValueError):
            unit.absorb(compute_tile(CFG, 0, x, y, z, oid, front))


class TestMultiObjectFilter:
    def make_tile(self, rows):
        pixel, z, oid, front = [], [], [], []
        for p, elements in rows:
            for zc, o in elements:
                pixel.append(p)
                z.append(zc)
                oid.append(o)
                front.append(True)
        return build_zeb_tile(
            np.array(pixel), np.array(z), np.array(oid),
            np.array(front, dtype=bool), CFG.rbcd, depths_are_codes=True,
        )

    def test_single_object_lists_skipped(self):
        tile = self.make_tile([(0, [(0, 1), (1, 1)]), (1, [(0, 1), (1, 2)])])
        mask = _multi_object_lists(tile)
        assert mask.tolist() == [False, True]

    def test_filter_never_drops_pair_producing_lists(self):
        # Any list that could produce a pair has >= 2 distinct ids.
        unit = RBCDUnit(CFG)
        result = compute_tile(CFG, 0, *colliding_tile_fragments())
        unit.absorb(result)
        assert unit.lists_analyzed == 1
        assert result.overlap.pair_records == 1

    def test_overlap_cycles_scale_with_contested_lists_only(self):
        unit = RBCDUnit(CFG)
        # 20 single-object pixels + 1 contested pixel.
        x = np.array(list(range(10)) * 2 + [12] * 4, dtype=np.int32)
        y = np.zeros(24, dtype=np.int32)
        z = np.concatenate([np.linspace(0.1, 0.9, 20), [0.1, 0.2, 0.3, 0.4]])
        oid = np.array([1] * 20 + [1, 2, 1, 2], dtype=np.int64)
        front = np.array([True, False] * 10 + [True, True, False, False])
        result = compute_tile(CFG, 0, x, y, z, oid, front)
        unit.absorb(result)
        assert unit.lists_analyzed == 1
        assert unit.elements_read == 4


class TestFallback:
    def test_overflow_rate_property(self):
        config = CFG.with_rbcd(list_length=1)
        unit = RBCDUnit(config)
        x = np.array([0, 0, 0], dtype=np.int32)
        y = np.zeros(3, dtype=np.int32)
        unit.absorb(compute_tile(config, 0, x, y, np.array([0.1, 0.2, 0.3]),
                                 np.array([1, 2, 3]), np.ones(3, dtype=bool)))
        assert unit.overflow_rate == pytest.approx(2.0 / 3.0)

    def test_cpu_fallback_threshold(self):
        config = CFG.with_rbcd(list_length=1, cpu_fallback_overflow_rate=0.5)
        unit = RBCDUnit(config)
        x = np.array([0, 0, 0], dtype=np.int32)
        y = np.zeros(3, dtype=np.int32)
        unit.absorb(compute_tile(config, 0, x, y, np.array([0.1, 0.2, 0.3]),
                                 np.array([1, 2, 3]), np.ones(3, dtype=bool)))
        assert unit.wants_cpu_fallback()

    def test_no_fallback_by_default(self):
        unit = RBCDUnit(CFG)
        unit.absorb(compute_tile(CFG, 0, *colliding_tile_fragments()))
        assert not unit.wants_cpu_fallback()
