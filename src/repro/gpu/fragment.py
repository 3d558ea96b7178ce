"""Fragment-processor stage: shading cost model and color output.

The four fragment processors are "the most consuming part of the
graphics hardware pipeline" (Section 3.3); their cost model is simple
but load-bearing: every early-Z-passing fragment costs its draw's
``fragment_cycles`` (defaulting to the GPU config's
``cycles_per_fragment``), spread across ``num_fragment_processors``.

The color output is flat per-draw shading — enough to validate
visibility and to give the examples something to look at; it has no
effect on collision detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu import scratch
from repro.gpu.commands import Frame
from repro.gpu.config import GPUConfig
from repro.gpu.earlyz import DepthTestResult
from repro.gpu.raster import FragmentSoup
from repro.gpu.stats import GPUStats

# Texture fetches per shaded fragment (one bilinear tap).
_TEXTURE_ACCESSES_PER_FRAGMENT = 1


def fragment_shader_cycles_per_draw(frame: Frame, config: GPUConfig) -> np.ndarray:
    """(D,) per-fragment shader cost for each draw of the frame."""
    return np.array(
        [
            d.fragment_cycles if d.fragment_cycles is not None else config.cycles_per_fragment
            for d in frame.draws
        ],
        dtype=np.float64,
    )


@dataclass
class ShadingResult:
    """Per-frame fragment-stage outputs."""

    color: np.ndarray            # (H, W, 3) float RGB, black where unwritten
    shaded_mask: np.ndarray      # (N,) fragments that were shaded
    shader_cycles_total: float   # summed single-processor cycles
    tile_cycles: np.ndarray | None = None  # (tiles,) the same, per tile


def shade_fragments(
    frame: Frame,
    frags: FragmentSoup,
    depth: DepthTestResult,
    config: GPUConfig,
    stats: GPUStats,
    deferred_shading: bool = False,
    tile_index: np.ndarray | None = None,
) -> ShadingResult:
    """Shade the early-Z survivors and resolve the color buffer.

    ``deferred_shading=True`` models a PowerVR-style TBDR (Section 3.1):
    hidden-surface removal guarantees the fragment processors run only
    for the fragments that reach the final image — exactly one per
    covered pixel — instead of every early-Z pass.

    Given each fragment's ``tile_index``, the result also carries the
    shader cycles per tile, summed in fragment order.
    """
    tile_cycles = None if tile_index is None else np.zeros(config.tile_count)
    if frags.count == 0 or frame.raster_only:
        color = np.zeros((config.screen_height, config.screen_width, 3))
        return ShadingResult(
            color, np.zeros(frags.count, dtype=bool), 0.0, tile_cycles
        )

    if deferred_shading:
        shaded = scratch.empty("fragment.shaded", frags.count, np.bool_)
        shaded.fill(False)
        shaded[depth.winner[depth.winner >= 0]] = True
    else:
        shaded = depth.passed
    per_draw = fragment_shader_cycles_per_draw(frame, config)
    idx, costs = shaded_cycles(frags, shaded, per_draw)
    cycles = float(costs.sum())
    if tile_index is not None:
        tile = scratch.empty("tmp.0", idx.shape[0], tile_index.dtype)
        np.take(tile_index, idx, out=tile, mode="clip")
        tile_cycles = np.bincount(
            tile, weights=costs, minlength=config.tile_count
        )

    num_shaded = int(np.count_nonzero(shaded))
    stats.fragments_shaded += num_shaded
    stats.texture_accesses += num_shaded * _TEXTURE_ACCESSES_PER_FRAGMENT
    stats.fragment_cycles += cycles / config.num_fragment_processors

    # Resolve visible colors from the per-pixel winners with one gather
    # of draw indices: a pixel no fragment won (winner -1) takes draw
    # index -1, which picks the palette's extra black row.
    unwritten = depth.winner < 0
    draw = scratch.empty("tmp.0", depth.winner.size, np.int64)
    draw = np.take(
        frags.draw_index, depth.winner, out=draw.reshape(depth.winner.shape),
        mode="wrap",
    )
    np.copyto(draw, -1, where=unwritten)
    palette = np.array(
        [d.color for d in frame.draws] + [(0.0, 0.0, 0.0)], dtype=np.float64
    )
    color = np.take(palette, draw, axis=0)
    stats.color_writes += draw.size - int(np.count_nonzero(unwritten))

    return ShadingResult(color, shaded, cycles, tile_cycles)


def shaded_cycles(
    frags: FragmentSoup, shaded: np.ndarray, per_draw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the ``shaded`` fragments, and the shader cost of
    each (its draw's entry of ``per_draw``), in fragment order."""
    idx = np.flatnonzero(shaded)
    draw = scratch.empty("tmp.0", idx.shape[0], np.int64)
    np.take(frags.draw_index, idx, out=draw, mode="clip")
    cycles = scratch.empty("tmp.1", idx.shape[0], per_draw.dtype)
    return idx, np.take(per_draw, draw, out=cycles, mode="clip")
