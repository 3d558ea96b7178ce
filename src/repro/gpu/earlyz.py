"""Early depth test over the fragment stream.

Functionally exact: each non-tagged fragment is tested LESS against the
Z-buffer value left by the fragments that arrived before it at the same
pixel (buffer cleared to 1.0 = far plane).  Tagged-to-be-culled
fragments never reach this stage (Section 3.3) — the caller filters
them.

The pass/fail decision is a kernel (:mod:`repro.gpu.kernels`): the
reference backend runs the literal per-fragment scan, the vectorized
backend a segmented exclusive prefix-min over the pixel-sorted stream.
Both visit each fragment once and compare exact floats (no algebraic
re-encoding), so the mask is bit-identical across backends; this module
derives the Z-buffer and per-pixel winner from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.kernels import get_backend
from repro.gpu.raster import FragmentSoup
from repro.gpu.stats import GPUStats


@dataclass
class DepthTestResult:
    """Outcome of the early-Z pass for one frame."""

    passed: np.ndarray      # (N,) bool, aligned with the input soup
    z_buffer: np.ndarray    # (H, W) final depth, 1.0 where never written
    winner: np.ndarray      # (H, W) int64 fragment index of the visible
    #                         fragment, -1 where none


def depth_test(
    frags: FragmentSoup, config: GPUConfig, stats: GPUStats
) -> DepthTestResult:
    """Run early-Z over the non-tagged fragments of a frame.

    The returned ``passed`` mask is aligned with the *input* soup; a
    tagged fragment is always ``False`` (it was filtered before the
    test and is not counted as a test).
    """
    height, width = config.screen_height, config.screen_width
    z_buffer = np.ones((height, width), dtype=np.float64)
    winner = np.full((height, width), -1, dtype=np.int64)
    passed = np.zeros(frags.count, dtype=bool)
    if frags.count == 0:
        return DepthTestResult(passed, z_buffer, winner)

    tested_idx = np.flatnonzero(~frags.tagged)
    stats.early_z_tests += int(tested_idx.shape[0])
    if tested_idx.shape[0] == 0:
        return DepthTestResult(passed, z_buffer, winner)

    pixel = frags.y.astype(np.int64)
    pixel *= width
    pixel += frags.x
    pixel = pixel[tested_idx]
    z = frags.z[tested_idx]

    backend = get_backend(config.kernel_backend)
    mask = backend.earlyz_pass_mask(pixel, z)
    passed[tested_idx] = mask
    stats.early_z_passes += int(mask.sum())

    # Final Z-buffer: per-pixel minimum of tested depths.
    # (minimum.at is unbuffered and handles duplicates.)
    flat_z = z_buffer.ravel()
    np.minimum.at(flat_z, pixel, z)

    # Winner per pixel: the passing fragment with the minimal depth.
    # Every later passing fragment at a pixel is strictly nearer than
    # all earlier ones, so the winner is the passing fragment with the
    # largest soup index — a per-pixel max reduction.
    if mask.any():
        np.maximum.at(winner.ravel(), pixel[mask], tested_idx[mask])

    return DepthTestResult(passed, z_buffer, winner)
