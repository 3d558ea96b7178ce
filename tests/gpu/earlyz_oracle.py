"""Reference Z-buffer and winner: two unbuffered scatters per frame.

The derivation ``repro.gpu.earlyz.depth_test`` replaced, kept as a test
oracle.  The Z-buffer is the per-pixel minimum of the tested depths
and the clear value 1.0 (``np.minimum.at``); the winner is the passing
fragment with the largest soup index (``np.maximum.at``), since every
later pass at a pixel is strictly nearer than all earlier ones.
``tests/gpu/test_earlyz.py`` holds ``depth_test`` to it.
"""

from __future__ import annotations

import numpy as np


def scatter_buffers(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    tagged: np.ndarray,
    passed: np.ndarray,
    width: int,
    height: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(z_buffer, winner)`` of a fragment soup whose early-Z pass
    mask is ``passed`` (tagged fragments are never tested)."""
    z_buffer = np.ones((height, width), dtype=np.float64)
    winner = np.full((height, width), -1, dtype=np.int64)
    tested_idx = np.flatnonzero(~tagged)
    pixel = y.astype(np.int64)[tested_idx] * width + x[tested_idx]
    np.minimum.at(z_buffer.ravel(), pixel, z[tested_idx])
    mask = passed[tested_idx]
    np.maximum.at(winner.ravel(), pixel[mask], tested_idx[mask])
    return z_buffer, winner
