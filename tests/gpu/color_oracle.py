"""Reference color resolve: a boolean-mask assignment per frame.

The resolve ``repro.gpu.fragment.shade_fragments`` replaced, kept as a
test oracle.  It writes each covered pixel's winning draw color into a
black (H, W, 3) buffer through the mask ``winner >= 0``.
``tests/gpu/test_color_oracle.py`` holds the one-gather resolve to it.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.commands import Frame
from repro.gpu.config import GPUConfig


def resolve_color(
    frame: Frame, draw_index: np.ndarray, winner: np.ndarray, config: GPUConfig
) -> np.ndarray:
    """(H, W, 3) color of a frame whose per-pixel winners are ``winner``
    (indices into the fragments' ``draw_index``, -1 where none)."""
    color = np.zeros(
        (config.screen_height, config.screen_width, 3), dtype=np.float64
    )
    if draw_index.shape[0] == 0 or frame.raster_only:
        return color
    covered = winner >= 0
    if covered.any():
        palette = np.array([d.color for d in frame.draws], dtype=np.float64)
        color[covered] = palette[draw_index[winner[covered]]]
    return color
