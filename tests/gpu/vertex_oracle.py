"""Reference vertex stage: one vertex-cache call per draw.

The per-draw loop ``repro.gpu.shading.shade_draws`` replaced, kept as a
test oracle.  It transforms each draw with ``P @ V @ M`` and sends that
draw's indices, in face order, to the vertex cache as its own call,
each draw's vertex buffer at its own line-aligned base address.
``tests/gpu/test_vertex_oracle.py`` holds the frame-batched stage to it.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.vec import transform_points_homogeneous
from repro.gpu.caches import Cache
from repro.gpu.commands import Frame
from repro.gpu.config import GPUConfig
from repro.gpu.shading import _VERTEX_STRIDE_BYTES, ShadedDraw
from repro.gpu.stats import GPUStats


def shade_draws(
    frame: Frame,
    config: GPUConfig,
    stats: GPUStats,
    vertex_cache: Cache | None = None,
) -> list[ShadedDraw]:
    """Clip-space draws of ``frame``, one vertex-cache call per draw."""
    if vertex_cache is None:
        vertex_cache = Cache(config.vertex_cache)

    shaded: list[ShadedDraw] = []
    base_address = 0
    for draw_index, draw in enumerate(frame.draws):
        mesh = draw.mesh
        with np.errstate(invalid="ignore", over="ignore"):
            mvp = frame.projection @ frame.view @ draw.model
            clip = transform_points_homogeneous(mvp, mesh.vertices)
        if not np.isfinite(clip).all():
            raise ValueError(
                f"draw {draw_index} (object_id {draw.object_id}) has "
                f"non-finite clip-space vertex positions: check its model "
                f"matrix, the view/projection and the mesh vertices"
            )

        indices = mesh.faces.ravel()
        addresses = base_address + indices.astype(np.int64) * _VERTEX_STRIDE_BYTES
        misses = vertex_cache.access_many(addresses)

        stats.vertices_fetched += indices.size
        stats.vertices_shaded += mesh.vertex_count
        stats.vertex_cache_accesses += indices.size
        stats.vertex_cache_misses += misses

        shaded.append(ShadedDraw(draw, draw_index, clip))
        base_address += mesh.vertex_count * _VERTEX_STRIDE_BYTES
        base_address = -(-base_address // 64) * 64

    return shaded
