"""Hybrid CD: RBCD for on-screen geometry, software CD off-screen.

Section 3.6: RBCD only sees what reaches the rasterizer, so
collisionable objects outside the view frustum need either extra
raster-only passes or "conventional software-based CD".  This module
implements that fallback: each frame, objects are classified against
the frustum; the visible set goes through the RBCD system, and every
candidate pair involving an off-screen object is resolved by the
software narrow phase (AABB prefilter + GJK).

This is a faithful composition of the paper's two suggestions, and it
makes the public API usable for full game worlds rather than only the
rendered slice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.core import RBCDSystem
from repro.geometry.aabb import AABB
from repro.observability.log import get_logger, log_event
from repro.observability.tracer import ensure_tracer
from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import Mat4, transform_points_homogeneous
from repro.gpu.assembly import _CLIP_PLANES
from repro.physics.broadphase import aabb_bruteforce_pairs, world_aabbs
from repro.physics.counters import OpCounter
from repro.physics.gjk import gjk_intersect
from repro.physics.shapes import ConvexShape
from repro.scenes.camera import Camera

_LOG = get_logger(__name__)


def aabb_outside_frustum(box: AABB, view_projection: Mat4) -> bool:
    """Conservative test: True only when the box is provably outside.

    A box whose 8 corners all fall outside one clip plane cannot touch
    the frustum.  (The converse is not exact, which only means some
    off-screen objects are handled by RBCD's raster pass anyway —
    harmless.)
    """
    corners = transform_points_homogeneous(view_projection, box.corners())
    dots = corners @ _CLIP_PLANES.T  # (8, 6)
    return bool((dots < 0.0).all(axis=0).any())


@dataclass
class HybridResult:
    """Pairs found per path, plus the merged answer."""

    rbcd_pairs: set[tuple[int, int]]
    software_pairs: set[tuple[int, int]]
    offscreen_ids: set[int]
    software_ops: OpCounter

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return self.rbcd_pairs | self.software_pairs


class HybridCDSystem:
    """RBCD with a software fallback for out-of-frustum objects."""

    def __init__(
        self,
        resolution: tuple[int, int] = (800, 480),
        rbcd_system: RBCDSystem | None = None,
        raster_only: bool = True,
        tracer=None,
        observers=(),
    ) -> None:
        """``tracer`` records hybrid-level spans (classify / software pass)
        and, when this object builds its own RBCD system, the GPU-side
        stage spans as well.  ``observers`` likewise go to a self-built
        RBCD system (see :class:`~repro.core.RBCDSystem`)."""
        self.tracer = ensure_tracer(tracer)
        self.rbcd = (
            rbcd_system
            if rbcd_system is not None
            else RBCDSystem(resolution, tracer=tracer, observers=observers)
        )
        self.raster_only = raster_only

    def close(self) -> None:
        """Close the RBCD system (a no-op kept for ``with`` blocks)."""
        self.rbcd.close()

    def __enter__(self) -> "HybridCDSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def detect(
        self,
        objects: list[tuple[int, TriangleMesh, Mat4]],
        camera: Camera,
    ) -> HybridResult:
        """Detect collisions among all objects, on-screen or not."""
        if not objects:
            return HybridResult(set(), set(), set(), OpCounter())

        with self.tracer.span("hybrid.classify", objects=len(objects)) as span:
            aspect = (
                self.rbcd.config.screen_width / self.rbcd.config.screen_height
            )
            view_projection = camera.projection(aspect) @ camera.view()

            boxes = {
                object_id: mesh.aabb().transformed(model)
                for object_id, mesh, model in objects
            }
            offscreen = {
                object_id
                for object_id, box in boxes.items()
                if aabb_outside_frustum(box, view_projection)
            }
            span.annotate(offscreen=len(offscreen))

        onscreen_objects = [
            entry for entry in objects if entry[0] not in offscreen
        ]
        rbcd_pairs: set[tuple[int, int]] = set()
        if len(onscreen_objects) >= 2:
            result = self.rbcd.detect(
                onscreen_objects, camera, raster_only=self.raster_only
            )
            rbcd_pairs = result.pairs

        with self.tracer.span("hybrid.software", offscreen=len(offscreen)):
            software_pairs, ops = self._software_pass(objects, boxes, offscreen)
        log_event(
            _LOG, "hybrid.frame.detected", level=logging.DEBUG,
            objects=len(objects), offscreen=len(offscreen),
            rbcd_pairs=len(rbcd_pairs), software_pairs=len(software_pairs),
        )
        return HybridResult(
            rbcd_pairs=rbcd_pairs,
            software_pairs=software_pairs,
            offscreen_ids=offscreen,
            software_ops=ops,
        )

    def _software_pass(self, objects, boxes, offscreen):
        """AABB prefilter + GJK for pairs touching off-screen objects."""
        ops = OpCounter()
        if not offscreen:
            return set(), ops
        ids = [object_id for object_id, _, _ in objects]
        broad = aabb_bruteforce_pairs([boxes[i] for i in ids], ids, ops)
        candidates = [
            pair
            for pair in broad.pairs
            if pair[0] in offscreen or pair[1] in offscreen
        ]
        if not candidates:
            return set(), ops
        shapes = {}
        for object_id, mesh, model in objects:
            shape = ConvexShape(mesh.vertices)
            shape.update_transform(model, ops)
            shapes[object_id] = shape
        found = set()
        for id_a, id_b in candidates:
            if gjk_intersect(shapes[id_a], shapes[id_b], ops).intersecting:
                found.add((id_a, id_b))
        return found, ops
