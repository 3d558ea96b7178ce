"""Shared fixtures: small GPU configs, simple scenes, and the scalar
oracle kernels swapped into the pipeline.

Tests run at reduced resolutions — collision results are driven by
relative geometry, not absolute pixel counts, and the cycle model's
*structure* is what the tests assert, so small screens keep the suite
fast without weakening any check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.primitives import make_box, make_uv_sphere
from repro.geometry.vec import Mat4, Vec3
from repro.gpu import earlyz, kernels, raster
from repro.gpu.commands import DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.rbcd import unit


@pytest.fixture
def reference_kernels(monkeypatch):
    """Run the pipeline on the hardware-literal scalar kernels.

    Swaps the test oracles in at the four kernel call sites — the
    rasterizer, early-Z, ZEB insertion and the Z-Overlap Test — so a
    whole frame renders the way the paper's hardware specifies it, one
    triangle, fragment and list element at a time.  Tests compare the
    result with the vectorized kernels' byte for byte.  The oracles are
    read from their modules when the fixture is set up, so a test may
    patch one of them first to check that the comparison catches it.
    """
    from tests.gpu import kernel_oracle
    from tests.rbcd import zeb_oracle, zoverlap_oracle

    monkeypatch.setattr(
        raster, "rasterize_triangles", kernel_oracle.rasterize_triangles
    )
    monkeypatch.setattr(earlyz, "earlyz_test", kernel_oracle.earlyz_test)
    monkeypatch.setattr(unit, "build_zeb", zeb_oracle.zeb_insert)
    monkeypatch.setattr(
        unit, "analyze_tile", zoverlap_oracle.traverse_lists_sequential
    )


# The kernel sets a whole-pipeline test can run on: the scalar oracles
# (which must reproduce themselves) and the pipeline's own kernels.
KERNEL_SETS = ("reference", "vectorized")


def use_kernels(request, name: str) -> None:
    """Run the rest of the test on the kernel set ``name``.

    ``"vectorized"`` keeps the pipeline's own kernels, and cannot follow
    ``"reference"``, which switches to the scalar oracles through
    :func:`reference_kernels` for the rest of the test.
    """
    if name == "reference":
        request.getfixturevalue("reference_kernels")
    elif name != "vectorized":
        raise ValueError(f"no kernel set {name!r}")
    elif raster.rasterize_triangles is not kernels.rasterize_triangles:
        raise RuntimeError("the test already runs on the oracle kernels")


@pytest.fixture
def small_config() -> GPUConfig:
    """A 160x96 screen (10x6 tiles) with default Table-2 parameters."""
    return GPUConfig().with_screen(160, 96)


@pytest.fixture
def tiny_config() -> GPUConfig:
    """A 64x32 screen (4x2 tiles) for the cheapest pipeline tests."""
    return GPUConfig().with_screen(64, 32)


def simple_view() -> Mat4:
    return Mat4.look_at(Vec3(0.0, 0.0, 5.0), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))


def simple_projection(aspect: float) -> Mat4:
    return Mat4.perspective(math.radians(60.0), aspect, 0.1, 100.0)


def two_boxes_frame(config: GPUConfig, separation: float) -> Frame:
    """Two unit boxes ``separation`` apart along X, facing the camera.

    They intersect in 3-D iff ``separation < 1.0``.
    """
    box = make_box(Vec3(0.5, 0.5, 0.5))
    draws = (
        DrawCommand(box, Mat4.translation(Vec3(-separation / 2.0, 0.0, 0.0)),
                    object_id=1, color=(1.0, 0.0, 0.0)),
        DrawCommand(box, Mat4.translation(Vec3(separation / 2.0, 0.0, 0.0)),
                    object_id=2, color=(0.0, 1.0, 0.0)),
    )
    aspect = config.screen_width / config.screen_height
    return Frame(draws=draws, view=simple_view(), projection=simple_projection(aspect))


def sphere_pair_frame(config: GPUConfig, separation: float) -> Frame:
    """Two radius-0.5 spheres ``separation`` apart along X."""
    sphere = make_uv_sphere(0.5, rings=10, segments=14)
    draws = (
        DrawCommand(sphere, Mat4.translation(Vec3(-separation / 2.0, 0.0, 0.0)),
                    object_id=1),
        DrawCommand(sphere, Mat4.translation(Vec3(separation / 2.0, 0.0, 0.0)),
                    object_id=2),
    )
    aspect = config.screen_width / config.screen_height
    return Frame(draws=draws, view=simple_view(), projection=simple_projection(aspect))
