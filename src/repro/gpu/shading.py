"""Geometry-pipeline vertex stage: fetch + transform.

Models the Vertex Fetcher (vertex-cache accesses over the mesh's vertex
buffer) and the programmable Vertex Processor (one MVP transform per
vertex at ``cycles_per_vertex``).  Output is clip-space positions, the
input to primitive assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.vec import Mat4, transform_points_homogeneous
from repro.gpu.caches import Cache
from repro.gpu.commands import DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats

# Bytes fetched per vertex: position (12) + normal (12) + uv (8).
_VERTEX_STRIDE_BYTES = 32


@dataclass
class ShadedDraw:
    """A draw command with its vertices taken to clip space."""

    draw: DrawCommand
    draw_index: int
    clip_positions: np.ndarray  # (V, 4)


def shade_draws(
    frame: Frame,
    config: GPUConfig,
    stats: GPUStats,
    vertex_cache: Cache | None = None,
) -> list[ShadedDraw]:
    """Run the vertex stage for every draw of a frame.

    The Vertex Processor transforms one draw at a time with
    ``(P @ V) @ M``, the view-projection product computed once per
    frame.  The transform stays per draw: a stacked form rounds
    differently and the clip positions must be bit-equal.  The Vertex
    Fetcher's accesses go to the vertex cache as one call per frame:
    each draw's indices in face order, draws in frame order, each draw's
    vertex buffer at its own line-aligned synthetic base address so
    draws do not falsely alias.  That is the access sequence of one call
    per draw, so the LRU state carries from draw to draw exactly as it
    would there; it is the caller's choice whether to flush between
    frames.  A frame with no draws makes no cache call.

    Raises ``ValueError`` naming the draw when its clip-space positions
    are not all finite (a NaN or inf in the model matrix, the
    view/projection or the mesh vertices).
    """
    if vertex_cache is None:
        vertex_cache = Cache(config.vertex_cache)

    shaded: list[ShadedDraw] = []
    streams: list[np.ndarray] = []
    base_address = 0
    # A NaN/inf input is reported below, naming the draw, instead of as
    # numpy's arithmetic warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        view_projection = frame.projection @ frame.view
        for draw_index, draw in enumerate(frame.draws):
            mesh = draw.mesh
            clip = transform_points_homogeneous(
                view_projection @ draw.model, mesh.vertices
            )
            if not np.isfinite(clip).all():
                raise ValueError(
                    f"draw {draw_index} (object_id {draw.object_id}) has "
                    f"non-finite clip-space vertex positions: check its model "
                    f"matrix, the view/projection and the mesh vertices"
                )
            shaded.append(ShadedDraw(draw, draw_index, clip))
            # Vertex fetch: indexed access in face order (the access
            # pattern the post-transform cache sees).
            indices = mesh.faces.ravel()
            streams.append(
                base_address + indices.astype(np.int64) * _VERTEX_STRIDE_BYTES
            )
            base_address += mesh.vertex_count * _VERTEX_STRIDE_BYTES
            # Keep draws line-aligned so the synthetic buffers stay disjoint.
            base_address = -(-base_address // 64) * 64

    if streams:
        addresses = np.concatenate(streams)
        stats.vertices_fetched += addresses.size
        stats.vertices_shaded += sum(s.draw.mesh.vertex_count for s in shaded)
        stats.vertex_cache_accesses += addresses.size
        stats.vertex_cache_misses += vertex_cache.access_many(addresses)
    return shaded


def vertex_stage_cycles(stats: GPUStats, config: GPUConfig) -> float:
    """Vertex-processor busy cycles for the counted activity."""
    shader = stats.vertices_shaded * config.cycles_per_vertex
    shader /= config.num_vertex_processors
    # Each vertex-cache miss stalls the fetcher for an L2 access; misses
    # overlap shading, so charge only the latency not hidden by it.
    miss_penalty = stats.vertex_cache_misses * config.l2_cache.latency_cycles
    return shader + miss_penalty
