"""Command-stream tests."""

import re

import numpy as np
import pytest

from repro.geometry.primitives import make_box
from repro.geometry.vec import Mat4
from repro.gpu.commands import (
    CommandStreamStats,
    CullMode,
    DrawCommand,
    Frame,
)


def draw(object_id=None) -> DrawCommand:
    return DrawCommand(make_box(), Mat4.identity(), object_id=object_id)


class TestDrawCommand:
    def test_collisionable_flag_follows_object_id(self):
        assert not draw().collisionable
        assert draw(object_id=3).collisionable

    def test_negative_object_id_rejected(self):
        with pytest.raises(ValueError):
            draw(object_id=-1)

    @pytest.mark.parametrize("object_id", [3.2, np.float64(3.0), "3", True])
    def test_non_integer_object_id_rejected(self, object_id):
        with pytest.raises(TypeError, match=re.escape(f"got {object_id!r}")):
            draw(object_id=object_id)

    def test_numpy_integer_object_id_accepted(self):
        assert draw(object_id=np.int64(3)).collisionable

    def test_default_cull_mode_is_back(self):
        assert draw().cull_mode is CullMode.BACK

    # A string or None used to be accepted and then cull every face: the
    # assembler's mode switch fell through to FRONT_AND_BACK.
    @pytest.mark.parametrize("cull_mode", ["back", "none", None, 0])
    def test_non_cull_mode_rejected(self, cull_mode):
        with pytest.raises(TypeError, match=re.escape(f"cull_mode must be a CullMode, got {cull_mode!r}")):
            DrawCommand(make_box(), Mat4.identity(), cull_mode=cull_mode)

    @pytest.mark.parametrize("cull_mode", list(CullMode))
    def test_every_cull_mode_accepted(self, cull_mode):
        made = DrawCommand(make_box(), Mat4.identity(), cull_mode=cull_mode)
        assert made.cull_mode is cull_mode


class TestFrame:
    def make_frame(self, draws) -> Frame:
        return Frame(draws=draws, view=Mat4.identity(), projection=Mat4.identity())

    def test_duplicate_object_ids_rejected(self):
        with pytest.raises(ValueError):
            self.make_frame([draw(object_id=1), draw(object_id=1)])

    def test_non_collisionable_draws_dont_conflict(self):
        frame = self.make_frame([draw(), draw(), draw(object_id=1)])
        assert len(frame.collisionable_draws) == 1

    def test_draws_stored_as_tuple(self):
        frame = self.make_frame([draw()])
        assert isinstance(frame.draws, tuple)

    def test_view_projection_composes(self):
        from repro.geometry.vec import Vec3

        frame = Frame(
            draws=(draw(),),
            view=Mat4.translation(Vec3(0, 0, -5)),
            projection=Mat4.scaling(2.0),
        )
        vp = frame.view_projection()
        assert vp.transform_point(Vec3(0, 0, 0)).is_close(Vec3(0, 0, -10))

    def test_raster_only_default_false(self):
        assert not self.make_frame([draw()]).raster_only


class TestCommandStreamStats:
    def test_counts(self):
        frame = Frame(
            draws=(draw(), draw(object_id=1), draw(object_id=2)),
            view=Mat4.identity(),
            projection=Mat4.identity(),
        )
        stats = CommandStreamStats.of(frame)
        assert stats.draw_count == 3
        assert stats.collisionable_draw_count == 2
        assert stats.triangle_count == 36
        assert stats.collisionable_triangle_count == 24
        assert stats.vertex_count == 24
