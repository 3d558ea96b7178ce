"""GPU command stream: draw commands with object-id markers.

Section 3.2 of the paper passes collisionable-object identifiers to the
GPU through a debug-marker-style OpenGL ES extension.  Here a
``DrawCommand`` carries the same information directly: a draw whose
``object_id`` is not ``None`` is a *collisionable* draw, and the id
flows with every primitive and fragment down the pipeline to the RBCD
unit, exactly as the extension's driver/hardware contract requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import Mat4


class CullMode(enum.Enum):
    """OpenGL-style face culling mode for a draw."""

    NONE = "none"
    BACK = "back"
    FRONT = "front"
    FRONT_AND_BACK = "front_and_back"


@dataclass(frozen=True, slots=True)
class DrawCommand:
    """One draw call: a mesh instance with its model transform.

    Parameters
    ----------
    mesh:
        Object-space geometry.
    model:
        Model-to-world transform.
    object_id:
        Collisionable-object identifier (the debug-marker payload), or
        ``None`` for non-collisionable geometry.  Ids must be unique per
        object within a frame and fit the RBCD element's id field.
    cull_mode:
        Which faces the Face Culling stage removes.  For collisionable
        draws the cull is *deferred*: culled primitives are rasterized,
        feed the RBCD unit, and are filtered before Early-Z
        (Section 3.3).
    color:
        Flat RGB in [0,1]^3 used by the (fixed-function) fragment stage;
        only affects the rendered image, never collision results.
    fragment_cycles:
        Per-fragment shader cost override; ``None`` uses the GPU
        config's default.  Lets workloads model cheap (unlit) versus
        expensive (textured/lit) materials.
    """

    mesh: TriangleMesh
    model: Mat4
    object_id: int | None = None
    cull_mode: CullMode = CullMode.BACK
    color: tuple[float, float, float] = (0.8, 0.8, 0.8)
    fragment_cycles: float | None = None

    def __post_init__(self) -> None:
        # A string such as "back" is not a CullMode, and no cull table
        # entry would match it.
        if not isinstance(self.cull_mode, CullMode):
            raise TypeError(
                f"cull_mode must be a CullMode, got {self.cull_mode!r} "
                f"({type(self.cull_mode).__name__})"
            )
        if self.object_id is None:
            return
        # A float id would be truncated down the pipeline (3.2 and 3.7
        # both become 3, and their pair is dropped as a self-pair).
        if isinstance(self.object_id, bool) or not isinstance(
            self.object_id, (int, np.integer)
        ):
            raise TypeError(
                f"object_id must be an integer or None, got "
                f"{self.object_id!r} ({type(self.object_id).__name__})"
            )
        if self.object_id < 0:
            raise ValueError("object_id must be non-negative")

    @property
    def collisionable(self) -> bool:
        return self.object_id is not None


@dataclass(frozen=True, slots=True)
class Frame:
    """One frame's worth of GPU commands.

    ``view`` and ``projection`` play the role of the per-frame camera
    uniforms; the vertex stage computes ``projection @ view @ model``
    per draw.

    ``raster_only`` marks the extra time-step submissions of
    Section 3.6: the commands are rasterized and fed to the RBCD unit
    but produce no fragment shading and no color output.
    """

    draws: tuple[DrawCommand, ...]
    view: Mat4
    projection: Mat4
    raster_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "draws", tuple(self.draws))
        ids = [d.object_id for d in self.draws if d.object_id is not None]
        if len(ids) != len(set(ids)):
            raise ValueError("collisionable object_ids must be unique in a frame")

    @property
    def collisionable_draws(self) -> tuple[DrawCommand, ...]:
        return tuple(d for d in self.draws if d.collisionable)

    def view_projection(self) -> Mat4:
        return self.projection @ self.view


@dataclass
class CommandStreamStats:
    """Counts describing a frame's command stream (driver-side view)."""

    draw_count: int = 0
    collisionable_draw_count: int = 0
    vertex_count: int = 0
    triangle_count: int = 0
    collisionable_triangle_count: int = 0

    @staticmethod
    def of(frame: Frame) -> "CommandStreamStats":
        stats = CommandStreamStats()
        stats.draw_count = len(frame.draws)
        for draw in frame.draws:
            stats.vertex_count += draw.mesh.vertex_count
            stats.triangle_count += draw.mesh.face_count
            if draw.collisionable:
                stats.collisionable_draw_count += 1
                stats.collisionable_triangle_count += draw.mesh.face_count
        return stats
