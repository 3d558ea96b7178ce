"""Early depth test over the fragment stream.

Functionally exact: each non-tagged fragment is tested LESS against the
Z-buffer value left by the fragments that arrived before it at the same
pixel (buffer cleared to 1.0 = far plane).  Tagged-to-be-culled
fragments never reach this stage (Section 3.3) — the caller filters
them.

The pass/fail decision is a kernel
(:func:`repro.gpu.kernels.earlyz_test`): a segmented exclusive
prefix-min over the pixel-sorted stream.  It visits each fragment once
and compares exact floats (no algebraic re-encoding), so the mask is
bit-identical to the literal per-fragment scan.  The kernel also names
each pixel's last passing fragment.  Every pass sets a strict new
minimum at its pixel, so that fragment is the pixel's visible one and
its depth the final Z-buffer value; a pixel with no pass keeps the
clear value 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.kernels import earlyz_test
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

    mask, visible = earlyz_test(pixel, z)
    passed[tested_idx] = mask
    stats.early_z_passes += int(mask.sum())

    at = pixel[visible]
    z_buffer.ravel()[at] = z[visible]
    winner.ravel()[at] = tested_idx[visible]

    return DepthTestResult(passed, z_buffer, winner)
