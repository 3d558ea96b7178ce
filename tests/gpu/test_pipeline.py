"""End-to-end GPU pipeline and tile-schedule tests."""

import numpy as np
import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU, _tile_schedule
from tests.conftest import two_boxes_frame, sphere_pair_frame


class TestTileSchedule:
    def test_empty(self):
        timing = _tile_schedule(np.zeros(0), np.zeros(0), np.zeros(0), 2)
        assert timing.total_cycles == 0.0

    def test_serial_sum_when_single_stage(self):
        raster = np.array([10.0, 20.0, 30.0])
        timing = _tile_schedule(raster, np.zeros(3), np.zeros(3), 2)
        assert timing.total_cycles == pytest.approx(60.0)
        assert timing.stall_cycles == 0.0

    def test_fragment_bound_hides_raster(self):
        raster = np.array([10.0, 10.0, 10.0])
        fragment = np.array([100.0, 100.0, 100.0])
        timing = _tile_schedule(raster, fragment, np.zeros(3), 2)
        # Fragments stream as they are rasterized, so the raster time is
        # fully hidden under the fragment-bound tiles.
        assert timing.total_cycles == pytest.approx(300.0)

    def test_one_zeb_serializes_overlap(self):
        raster = np.array([10.0] * 4)
        overlap = np.array([50.0] * 4)
        t1 = _tile_schedule(raster, np.zeros(4), overlap, 1)
        t2 = _tile_schedule(raster, np.zeros(4), overlap, 2)
        # With one ZEB every tile's raster waits out the previous
        # overlap; with two ZEBs overlap pipelines with the next raster.
        assert t1.total_cycles > t2.total_cycles
        assert t1.stall_cycles > t2.stall_cycles

    def test_two_zebs_hide_small_overlap(self):
        raster = np.array([50.0] * 6)
        overlap = np.array([20.0] * 6)
        t2 = _tile_schedule(raster, np.zeros(6), overlap, 2)
        # Overlap of tile t finishes before tile t+2 needs the ZEB.
        assert t2.stall_cycles == 0.0
        assert t2.total_cycles == pytest.approx(6 * 50.0 + 20.0)

    def test_monotone_in_zeb_count(self):
        rng = np.random.RandomState(0)
        raster = rng.uniform(5, 50, 30)
        fragment = rng.uniform(5, 50, 30)
        overlap = rng.uniform(5, 50, 30)
        totals = [
            _tile_schedule(raster, fragment, overlap, k).total_cycles
            for k in (1, 2, 3, 4)
        ]
        assert totals[0] >= totals[1] >= totals[2] >= totals[3]

    def test_queue_limits_raster_runahead(self):
        # Fragment-heavy tile 0 blocks the rasterizer from racing ahead.
        raster = np.array([10.0, 10.0])
        fragment = np.array([500.0, 0.0])
        timing = _tile_schedule(raster, fragment, np.zeros(2), 2)
        assert timing.raster_start[1] >= timing.fragment_end[0] - 16.0 - 1e-9


class TestRenderFrame:
    def test_collision_detected_when_overlapping(self, small_config):
        gpu = GPU(small_config, rbcd_enabled=True)
        result = gpu.render_frame(two_boxes_frame(small_config, 0.8))
        assert {(1, 2)} == {(p.id_a, p.id_b) for p in result.collisions.pairs}

    def test_no_collision_when_separated(self, small_config):
        gpu = GPU(small_config, rbcd_enabled=True)
        result = gpu.render_frame(two_boxes_frame(small_config, 1.5))
        assert len(result.collisions) == 0

    def test_resolution_shrinks_false_negative_margin(self):
        # A 0.02-unit overlap is thinner than a 160px screen's pixel, so
        # RBCD can miss it; at 4x the resolution the overlap column
        # contains pixel centres and the collision is found
        # (Section 2.2: higher resolution, smaller discretization area).
        lo = GPUConfig().with_screen(160, 96)
        hi = GPUConfig().with_screen(640, 384)
        hit_hi = GPU(hi, rbcd_enabled=True).render_frame(two_boxes_frame(hi, 0.98))
        assert (1, 2) in hit_hi.collisions

    def test_baseline_reports_no_collisions(self, small_config):
        gpu = GPU(small_config, rbcd_enabled=False)
        result = gpu.render_frame(two_boxes_frame(small_config, 0.8))
        assert result.collisions is None

    def test_rbcd_adds_time_and_energy_activity(self, small_config):
        frame = two_boxes_frame(small_config, 0.8)
        base = GPU(small_config, rbcd_enabled=False).render_frame(frame)
        rbcd = GPU(small_config, rbcd_enabled=True).render_frame(frame)
        assert rbcd.stats.gpu_cycles >= base.stats.gpu_cycles
        assert rbcd.stats.prims_rasterized > base.stats.prims_rasterized
        assert rbcd.stats.fragments_produced > base.stats.fragments_produced
        assert rbcd.stats.zeb_insertions > 0

    def test_spheres_collide_and_separate(self, small_config):
        gpu = GPU(small_config, rbcd_enabled=True)
        hit = gpu.render_frame(sphere_pair_frame(small_config, 0.9))
        miss = gpu.render_frame(sphere_pair_frame(small_config, 1.2))
        assert (1, 2) in hit.collisions
        assert (1, 2) not in miss.collisions

    def test_zbuffer_and_color_written(self, small_config):
        gpu = GPU(small_config, rbcd_enabled=True)
        result = gpu.render_frame(two_boxes_frame(small_config, 0.8))
        assert (result.z_buffer < 1.0).any()
        covered = result.color.sum(axis=2) > 0
        assert covered.any()
        # Colors only where depth was written.
        assert not (covered & (result.z_buffer == 1.0)).any()

    def test_raster_only_frame_skips_shading(self, small_config):
        import dataclasses

        frame = two_boxes_frame(small_config, 0.8)
        frame = dataclasses.replace(frame, raster_only=True)
        result = GPU(small_config, rbcd_enabled=True).render_frame(frame)
        assert result.stats.fragments_shaded == 0
        assert result.stats.early_z_tests == 0
        assert (1, 2) in result.collisions  # CD still works

    def test_tile_timing_kept_on_request(self, tiny_config):
        gpu = GPU(tiny_config, rbcd_enabled=True)
        frame = two_boxes_frame(tiny_config, 0.8)
        with_timing = gpu.render_frame(frame, keep_tile_timing=True)
        without = gpu.render_frame(frame)
        assert with_timing.tile_timing is not None
        assert without.tile_timing is None

    def test_fragments_kept_on_request(self, tiny_config):
        gpu = GPU(tiny_config, rbcd_enabled=True)
        frame = two_boxes_frame(tiny_config, 0.8)
        result = gpu.render_frame(frame, keep_fragments=True)
        assert result.fragments is not None
        assert result.fragments.count == result.stats.fragments_produced

    def test_deterministic(self, tiny_config):
        frame = two_boxes_frame(tiny_config, 0.8)
        a = GPU(tiny_config, rbcd_enabled=True).render_frame(frame)
        b = GPU(tiny_config, rbcd_enabled=True).render_frame(frame)
        assert a.stats.gpu_cycles == b.stats.gpu_cycles
        assert a.collisions.as_sorted_pairs() == b.collisions.as_sorted_pairs()

    def test_depth_order_in_image(self, small_config):
        """The nearer box must win the contested pixels."""
        import dataclasses

        from repro.geometry.primitives import make_box
        from repro.geometry.vec import Mat4, Vec3
        from repro.gpu.commands import DrawCommand, Frame
        from tests.conftest import simple_projection, simple_view

        near = DrawCommand(
            make_box(Vec3(0.4, 0.4, 0.4)), Mat4.translation(Vec3(0, 0, 1.0)),
            color=(1.0, 0.0, 0.0),
        )
        far = DrawCommand(
            make_box(Vec3(0.6, 0.6, 0.6)), Mat4.translation(Vec3(0, 0, -1.0)),
            color=(0.0, 1.0, 0.0),
        )
        aspect = small_config.screen_width / small_config.screen_height
        frame = Frame(
            draws=(far, near), view=simple_view(),
            projection=simple_projection(aspect),
        )
        result = GPU(small_config, rbcd_enabled=False).render_frame(frame)
        cy, cx = small_config.screen_height // 2, small_config.screen_width // 2
        assert result.color[cy, cx, 0] == pytest.approx(1.0)  # red wins centre


class TestFailedFrame:
    """A frame that raises mid-pipeline must not leave spans open."""

    @staticmethod
    def cap_frames(config):
        import dataclasses

        from repro.scenes.benchmarks import workload_by_alias

        good = workload_by_alias("cap", detail=1).scene.frame_at(1.0, config)
        # 8192 does not fit the ZEB's 13-bit object-id field.
        draws = list(good.draws)
        index = next(i for i, d in enumerate(draws) if d.collisionable)
        draws[index] = dataclasses.replace(draws[index], object_id=8192)
        return good, dataclasses.replace(good, draws=tuple(draws))

    def test_failed_frame_closes_its_spans(self, small_config):
        from repro.observability.tracer import Tracer

        good, bad = self.cap_frames(small_config)
        tracer = Tracer(keep_spans=False)
        closed = []
        tracer.add_listener(closed.append)
        gpu = GPU(small_config, tracer=tracer)
        gpu.render_frame(good)
        with pytest.raises(ValueError):
            gpu.render_frame(bad)
        assert tracer.current is None
        assert tracer.spans == []
        tracer.reset()
        closed.clear()
        gpu.render_frame(good)
        (frame_span,) = [s for s in closed if s.name == "frame"]
        assert frame_span.parent == -1 and frame_span.depth == 0
        assert tracer.spans == []

    def test_failed_frame_gets_no_end_frame(self, small_config):
        from repro.observability.observer import FrameObserver

        class Ends(FrameObserver):
            begun = ended = 0

            def begin_frame(self, config):
                self.begun += 1

            def end_frame(self, result, wall_s):
                self.ended += 1

        good, bad = self.cap_frames(small_config)
        ends = Ends()
        gpu = GPU(small_config, observers=[ends])
        with pytest.raises(ValueError):
            gpu.render_frame(bad)
        gpu.render_frame(good)
        assert (ends.begun, ends.ended) == (2, 1)
