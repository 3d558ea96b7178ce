"""Early depth test over the fragment stream.

Functionally exact: each non-tagged fragment is tested LESS against the
Z-buffer value left by the fragments that arrived before it at the same
pixel (buffer cleared to 1.0 = far plane).  Tagged-to-be-culled
fragments never reach the Z-buffer (Section 3.3): each runs through the
kernel at a private key past the screen, where it meets no other
fragment, and its result is dropped.

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

from repro.gpu import scratch
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
    tagged fragment is always ``False`` (it is tested at a private key
    and not counted as a test).
    """
    height, width = config.screen_height, config.screen_width
    n = frags.count
    z_buffer = np.ones((height, width), dtype=np.float64)
    winner = scratch.empty("earlyz.winner", height * width, np.int64)
    winner = winner.reshape(height, width)
    winner.fill(-1)
    passed = scratch.empty("earlyz.passed", n, np.bool_)
    passed.fill(False)
    if n == 0:
        return DepthTestResult(passed, z_buffer, winner)

    tested = n - int(np.count_nonzero(frags.tagged))
    stats.early_z_tests += tested
    if tested == 0:
        return DepthTestResult(passed, z_buffer, winner)

    # Flat pixel keys y * width + x.  A tagged fragment takes a private
    # key past the screen instead (height * width plus its rank among
    # the tagged), so the test passes over it without touching a pixel
    # and the stream needs no compaction.
    screen = height * width
    pixel = scratch.empty("earlyz.pixel", n, np.int64)
    np.multiply(frags.y, width, out=pixel, dtype=np.int64)
    pixel += frags.x
    if tested < n:
        private = scratch.empty("tmp.0", n, np.int64)
        np.cumsum(frags.tagged, out=private)
        private += screen - 1
        np.copyto(pixel, private, where=frags.tagged)

    mask, visible = earlyz_test(pixel, frags.z)
    np.logical_not(frags.tagged, out=passed)
    passed &= mask
    stats.early_z_passes += int(np.count_nonzero(passed))

    # Visible fragments come in pixel order, so the on-screen ones lead.
    at = np.take(
        pixel, visible, out=scratch.empty("tmp.0", visible.shape[0], np.int64),
        mode="clip",
    )
    on = int(np.searchsorted(at, screen))
    at, visible = at[:on], visible[:on]
    z_buffer.ravel()[at] = np.take(
        frags.z, visible, out=scratch.empty("tmp.1", on, np.float64),
        mode="clip",
    )
    winner.ravel()[at] = visible

    return DepthTestResult(passed, z_buffer, winner)
