"""RBCD edge cases: extreme configurations and quantization ties."""

import numpy as np
import pytest

from repro.gpu.config import GPUConfig, RBCDConfig
from repro.gpu.pipeline import GPU
from repro.rbcd.element import max_object_id, quantize_depth
from repro.rbcd.overlap import analyze_tile
from repro.rbcd.zeb import build_zeb
from tests.rbcd.zoverlap_oracle import analyze_pixel_list
from tests.conftest import two_boxes_frame


class TestExtremeListLengths:
    def test_m1_holds_only_nearest(self):
        cfg = RBCDConfig(list_length=1, z_bits=18, id_bits=13)
        tile = build_zeb(
            np.array([0, 0, 0]), np.array([30, 10, 20]),
            np.array([1, 2, 3]), np.ones(3, dtype=bool),
            cfg, 256,
        )
        assert tile.counts.tolist() == [1]
        assert tile.object_ids[0, 0] == 2
        assert tile.overflow_events == 2

    def test_m1_cannot_detect_anything(self, tiny_config):
        config = tiny_config.with_rbcd(list_length=1)
        result = GPU(config).render_frame(two_boxes_frame(tiny_config, 0.3))
        assert len(result.collisions) == 0

    def test_large_m_equals_unbounded(self, small_config):
        frame = two_boxes_frame(small_config, 0.7)
        m64 = GPU(
            small_config.with_rbcd(list_length=64, z_bits=18, id_bits=13,
                                   ff_stack_entries=64)
        ).render_frame(frame)
        m128 = GPU(
            small_config.with_rbcd(list_length=128, z_bits=18, id_bits=13,
                                   ff_stack_entries=128)
        ).render_frame(frame)
        assert m64.collisions.as_sorted_pairs() == m128.collisions.as_sorted_pairs()
        assert m64.stats.zeb_overflow_events == 0


class TestStackSmallerThanList:
    """Matched entries are *tagged, never popped* (Section 3.5), so a
    stack slot is consumed by every front face of the list — T must be
    at least the per-list front-face count, which the default T == M
    guarantees."""

    def test_t1_second_front_overflows_even_after_match(self):
        cfg = RBCDConfig(ff_stack_entries=1)
        # [A ]A [B ]B : the matched [A still occupies the only slot, so
        # [B is dropped and ]B goes unmatched — no false pair appears.
        result = analyze_pixel_list(
            [0, 1, 2, 3], [1, 1, 2, 2], [True, False, True, False], cfg
        )
        assert result.pair_records == 0
        assert result.stack_overflows == 1
        assert result.unmatched_backfaces == 1

    def test_t1_nested_pair_lost_but_no_false_positive(self):
        cfg = RBCDConfig(ff_stack_entries=1)
        # [A [B ]A ]B : the [B push is dropped; the true pair is missed
        # (a stack-overflow loss) but nothing spurious is reported.
        result = analyze_pixel_list(
            [0, 1, 2, 3], [1, 2, 1, 2], [True, True, False, False], cfg
        )
        assert result.stack_overflows == 1
        assert result.unmatched_backfaces == 1
        assert result.pair_records == 0

    def test_default_t_covers_full_lists(self):
        cfg = RBCDConfig()  # T == M == 8
        # All-front list of M entries: exactly fills the stack.
        result = analyze_pixel_list(
            list(range(8)), [1, 2, 3, 4, 5, 6, 7, 0], [True] * 8, cfg
        )
        assert result.stack_overflows == 0


class TestQuantizationTies:
    def test_coincident_faces_still_ordered_by_arrival(self):
        cfg = RBCDConfig()
        z = quantize_depth(np.array([0.5, 0.5, 0.5, 0.5]), cfg)
        tile = build_zeb(
            np.zeros(4, dtype=np.int64), z,
            np.array([1, 1, 2, 2]),
            np.array([True, False, True, False]),
            cfg, 256,
        )
        # All four codes identical; arrival order preserved:
        # [A ]A [B ]B -> case 1, no collision.
        result = analyze_tile(tile, cfg)
        assert result.pair_records == 0

    def test_sub_quantum_gap_reads_as_contact(self):
        """Two faces closer than one z quantum become equal codes; with
        interleaved arrival, the closed-interval semantics report
        contact — the hardware's resolution limit."""
        cfg = RBCDConfig()
        quantum = 1.0 / ((1 << cfg.z_bits) - 1)
        z = np.array([0.5, 0.5 + 0.4 * quantum, 0.5 + 0.8 * quantum, 0.6])
        codes = quantize_depth(z, cfg)
        tile = build_zeb(
            np.zeros(4, dtype=np.int64), codes,
            np.array([1, 2, 1, 2]),
            np.array([True, True, False, False]),
            cfg, 256,
        )
        result = analyze_tile(tile, cfg)
        assert result.pair_records >= 1


class TestIdBoundaries:
    def test_max_id_flows_through_unit(self, tiny_config):
        from repro.rbcd.unit import RBCDUnit, compute_tile
        from tests.rbcd.tile_oracle import tile_batch

        unit = RBCDUnit(tiny_config)
        top = max_object_id(tiny_config.rbcd)
        x = np.array([1, 1, 1, 1], dtype=np.int32)
        y = np.zeros(4, dtype=np.int32)
        z = np.array([0.1, 0.2, 0.3, 0.4])
        oid = np.array([top, top - 1, top, top - 1])
        front = np.array([True, True, False, False])
        (result,) = compute_tile(
            tiny_config, tile_batch((0, x, y, z, oid, front))
        )
        unit.absorb(result)
        assert (top - 1, top) in unit.report

    def test_oversized_id_refused_before_any_tile_through_detect_frame(self):
        """Left to right: id 1, then 8200 and 8300 on the same pixels,
        then 9000.  The first offending tile in schedule order holds
        8200 and 8300 and no valid tile before it is absorbed."""
        from repro.core import RBCDSystem
        from repro.geometry.primitives import make_box
        from repro.geometry.vec import Mat4, Vec3
        from repro.gpu.commands import DrawCommand, Frame
        from repro.observability.observer import FrameObserver
        from tests.conftest import simple_projection, simple_view

        class Tiles(FrameObserver):
            absorbed = 0

            def record_tile(self, result):
                self.absorbed += 1

        box = make_box(Vec3(0.4, 0.4, 0.4))
        frame = Frame(
            draws=tuple(
                DrawCommand(box, Mat4.translation(Vec3(x, 0, 0)), object_id=oid)
                for x, oid in ((-2.0, 1), (0.0, 8200), (0.0, 8300), (2.0, 9000))
            ),
            view=simple_view(),
            projection=simple_projection(160 / 96),
        )
        tiles = Tiles()
        system = RBCDSystem(resolution=(160, 96), observers=[tiles])
        with pytest.raises(
            ValueError,
            match=r"^object id 8300 exceeds the 13-bit ZEB id field$",
        ):
            system.detect_frame(frame)
        assert tiles.absorbed == 0

    def test_id_zero_valid(self):
        cfg = RBCDConfig()
        result = analyze_pixel_list(
            [0, 1, 2, 3], [0, 1, 0, 1], [True, True, False, False], cfg
        )
        assert result.pair_records == 1
        assert set(result.pair_id_a.tolist()) | set(result.pair_id_b.tolist()) == {0, 1}
