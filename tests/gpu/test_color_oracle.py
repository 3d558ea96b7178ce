"""Differential tests: the one-gather color resolve against the oracle.

``tests/gpu/color_oracle.py`` keeps the boolean-mask assignment that
``shade_fragments`` used to resolve the color buffer.  The production
resolve gathers each pixel's winning draw color from a palette with an
extra black row, indexed by a per-pixel draw index (-1 where no
fragment won).  Both must produce the same bytes for every rendering
mode, for frames with and without covered pixels, and for raster-only
frames.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.gpu.pipeline as pipeline
from repro.geometry.vec import Mat4, Vec3
from repro.gpu.config import GPUConfig
from repro.gpu.earlyz import DepthTestResult
from repro.gpu.fragment import shade_fragments
from repro.gpu.pipeline import GPU
from repro.gpu.raster import FragmentSoup
from repro.gpu.stats import GPUStats
from tests.conftest import sphere_pair_frame, two_boxes_frame
from tests.gpu.color_oracle import resolve_color

MODES = (("tbr", True), ("tbr", False), ("tbdr", False), ("imr", False))


def assert_bytes_equal(ours: np.ndarray, theirs: np.ndarray) -> None:
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@pytest.fixture
def shade_calls(monkeypatch):
    """Every (frame, fragments, depth result, returned color) that the
    pipeline's fragment stage saw."""
    calls = []
    real = pipeline.shade_fragments

    def spy(frame, frags, depth, config, stats, **kwargs):
        result = real(frame, frags, depth, config, stats, **kwargs)
        calls.append((frame, frags, depth, result.color))
        return result

    monkeypatch.setattr(pipeline, "shade_fragments", spy)
    return calls


def off_screen(frame):
    """The same frame with every draw moved behind the camera."""
    away = Mat4.translation(Vec3(0.0, 0.0, 50.0))
    return replace(
        frame,
        draws=tuple(replace(d, model=away @ d.model) for d in frame.draws),
    )


def render(config, frame, mode, rbcd):
    return GPU(config, rbcd_enabled=rbcd, rendering_mode=mode).render_frame(frame)


@pytest.mark.parametrize("mode,rbcd", MODES)
@pytest.mark.parametrize("make_frame", [two_boxes_frame, sphere_pair_frame])
def test_frame_color_matches_the_oracle(
    shade_calls, small_config, mode, rbcd, make_frame
):
    frame = make_frame(small_config, 0.8)
    result = render(small_config, frame, mode, rbcd)
    (seen_frame, frags, depth, color), = shade_calls
    assert seen_frame is frame and color is result.color
    assert (depth.winner >= 0).any()
    assert_bytes_equal(
        result.color,
        resolve_color(frame, frags.draw_index, depth.winner, small_config),
    )


@pytest.mark.parametrize("mode,rbcd", MODES)
def test_frame_with_nothing_on_screen_matches_the_oracle(
    shade_calls, small_config, mode, rbcd
):
    frame = off_screen(two_boxes_frame(small_config, 0.8))
    result = render(small_config, frame, mode, rbcd)
    (_, frags, depth, _), = shade_calls
    assert frags.count == 0
    assert_bytes_equal(
        result.color,
        resolve_color(frame, frags.draw_index, depth.winner, small_config),
    )


@pytest.mark.parametrize("mode,rbcd", MODES)
def test_raster_only_frame_matches_the_oracle(small_config, mode, rbcd):
    frame = replace(two_boxes_frame(small_config, 0.8), raster_only=True)
    result = render(small_config, frame, mode, rbcd)
    winner = np.full(
        (small_config.screen_height, small_config.screen_width), -1, np.int64
    )
    assert_bytes_equal(
        result.color,
        resolve_color(frame, np.zeros(1, np.int64), winner, small_config),
    )


def test_fragments_without_a_winner_resolve_black():
    # Fragments exist, but none won a pixel (all failed early-Z, or all
    # were tagged): the gather path still yields an all-black buffer.
    config = GPUConfig().with_screen(32, 16)
    frame = two_boxes_frame(config, 0.8)
    n = 5
    frags = replace(
        FragmentSoup.empty(),
        x=np.arange(n, dtype=np.int32), y=np.zeros(n, np.int32),
        z=np.ones(n), object_id=np.ones(n, np.int64),
        front=np.ones(n, bool), tagged=np.zeros(n, bool),
        draw_index=np.ones(n, np.int64), tri_index=np.arange(n),
    )
    depth = DepthTestResult(
        passed=np.zeros(n, bool),
        z_buffer=np.ones((16, 32)),
        winner=np.full((16, 32), -1, np.int64),
    )
    stats = GPUStats()
    color = shade_fragments(frame, frags, depth, config, stats).color
    assert stats.color_writes == 0
    assert_bytes_equal(
        color, resolve_color(frame, frags.draw_index, depth.winner, config)
    )
    assert not color.any()
