"""High-level public API for render-based collision detection.

Most users want one of two things:

* :func:`detect_collisions` — one-shot: give it meshes with transforms
  and a camera, get back the colliding pairs.
* :class:`RBCDSystem` — a reusable configured system (resolution, ZEB
  parameters) for frame-after-frame detection in an animation loop,
  with access to the full report (contact points, stats, image).

Both drive the complete GPU model: the collision results are exactly
what the modelled hardware would report, including ZEB overflow effects
at small list lengths.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from repro.energy.report import FrameEnergyReport
from repro.observability.log import get_logger, log_event
from repro.geometry.mesh import TriangleMesh
from repro.geometry.vec import Mat4
from repro.gpu.commands import DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU, FrameResult
from repro.gpu.stats import GPUStats
from repro.rbcd.pairs import CollisionPair, CollisionReport, ContactPoint
from repro.scenes.camera import Camera

__all__ = [
    "CollisionPair",
    "RBCDFrameResult",
    "RBCDSystem",
    "detect_collisions",
]

_LOG = get_logger(__name__)


@dataclass
class RBCDFrameResult:
    """Collision results for one detected frame."""

    report: CollisionReport
    stats: GPUStats
    color: np.ndarray
    z_buffer: np.ndarray
    cpu_fallback: bool
    view_projection: Mat4
    screen_size: tuple[int, int]
    energy: FrameEnergyReport | None = None  # modelled joules + EDP

    @property
    def pairs(self) -> set[tuple[int, int]]:
        """Colliding object-id pairs, each ordered ``(low, high)``."""
        return {(p.id_a, p.id_b) for p in self.report.pairs}

    def contacts(self, id_a: int, id_b: int) -> list[ContactPoint]:
        """Contact points recorded for one pair (empty if not colliding)."""
        return list(self.report.contacts.get(CollisionPair.make(id_a, id_b), []))

    def collides(self, id_a: int, id_b: int) -> bool:
        return (id_a, id_b) in self.report

    def world_contacts(self, id_a: int, id_b: int) -> np.ndarray:
        """Contact records unprojected to world space, (N, 2, 3).

        ``[..., 0, :]`` is the front end of each overlapping depth
        interval, ``[..., 1, :]`` the back end.
        """
        from repro.rbcd.manifold import unproject_contacts

        width, height = self.screen_size
        return unproject_contacts(
            self.contacts(id_a, id_b), self.view_projection, width, height
        )

    def manifold(self, id_a: int, id_b: int):
        """World-space contact manifold for one pair (see
        :mod:`repro.rbcd.manifold`)."""
        from repro.rbcd.manifold import build_manifold

        width, height = self.screen_size
        return build_manifold(
            min(id_a, id_b), max(id_a, id_b),
            self.contacts(id_a, id_b), self.view_projection, width, height,
        )


class RBCDSystem:
    """A configured GPU + RBCD unit, reusable across frames.

    Parameters
    ----------
    resolution:
        Render/collision resolution (width, height).  Higher resolution
        shrinks the discretization's false-collisionable margin
        (Section 2.2).
    zeb_count, list_length:
        RBCD unit configuration (Table 2 defaults: 2 ZEBs, M=8).
    config:
        Full :class:`GPUConfig` override; when given, the other
        keyword parameters are ignored.
    tracer:
        Optional :class:`repro.observability.Tracer`; frames rendered
        through this system then record stage spans (wall time +
        simulated cycles).  Tracing never changes detection results.
    observers:
        :class:`~repro.observability.observer.FrameObserver` instances
        handed to the GPU (see :class:`~repro.gpu.pipeline.GPU`): a
        :class:`~repro.observability.provenance.ProvenanceRecorder`,
        :class:`~repro.observability.live.LiveMonitor`,
        :class:`~repro.observability.tileprofile.TileProfiler`, or your
        own.  Strictly observational — results, counters and cycles are
        bit-identical with any set of observers attached.  A
        :class:`~repro.observability.FlightRecorder` is not an
        observer: wire it with its ``attach_config`` /
        ``attach_tracer`` / ``attach_monitor`` methods.

    The system holds no resources: :meth:`close` and the ``with`` block
    are no-ops, kept so callers can scope a system without caring.
    """

    def __init__(
        self,
        resolution: tuple[int, int] = (800, 480),
        zeb_count: int = 2,
        list_length: int = 8,
        config: GPUConfig | None = None,
        tracer=None,
        observers=(),
    ) -> None:
        if isinstance(resolution, GPUConfig):
            raise TypeError(
                "RBCDSystem's first parameter is resolution; pass a "
                "GPUConfig as RBCDSystem(config=...)"
            )
        if config is None:
            if not (
                isinstance(resolution, (tuple, list))
                and len(resolution) == 2
                and all(
                    isinstance(v, numbers.Integral)
                    and not isinstance(v, bool)
                    and v > 0
                    for v in resolution
                )
            ):
                raise ValueError(
                    "resolution must be a (width, height) pair of positive "
                    f"ints, got {resolution!r}"
                )
            width, height = resolution
            config = GPUConfig().with_screen(width, height).with_rbcd(
                zeb_count=zeb_count,
                list_length=list_length,
                ff_stack_entries=max(list_length, 8),
            )
        self.config = config
        self._gpu = GPU(
            config, rbcd_enabled=True, tracer=tracer, observers=observers
        )
        log_event(
            _LOG, "rbcd.system.created", level=logging.DEBUG,
            width=config.screen_width, height=config.screen_height,
            observers=len(self._gpu.observers),
        )

    def close(self) -> None:
        """No-op: the system holds no resources (see the class doc)."""

    def __enter__(self) -> "RBCDSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def detect_frame(self, frame: Frame) -> RBCDFrameResult:
        """Run detection (and rendering) on a prepared GPU frame."""
        result: FrameResult = self._gpu.render_frame(frame)
        if result.collisions is None:
            raise RuntimeError("RBCD unit produced no report (disabled?)")
        if result.cpu_fallback:
            log_event(
                _LOG, "rbcd.cpu_fallback", level=logging.WARNING,
                overflow_rate=result.stats.zeb_overflow_rate,
                insertions=result.stats.zeb_insertions,
            )
        log_event(
            _LOG, "rbcd.frame.detected", level=logging.DEBUG,
            pairs=result.collisions.pair_records_written,
            fragments=result.stats.fragments_produced,
            gpu_cycles=result.stats.gpu_cycles,
        )
        return RBCDFrameResult(
            report=result.collisions,
            stats=result.stats,
            color=result.color,
            z_buffer=result.z_buffer,
            cpu_fallback=result.cpu_fallback,
            view_projection=frame.view_projection(),
            screen_size=(self.config.screen_width, self.config.screen_height),
            energy=result.energy,
        )

    def detect(
        self,
        objects: list[tuple[int, TriangleMesh, Mat4]],
        camera: Camera,
        raster_only: bool = False,
        extra_draws: tuple[DrawCommand, ...] = (),
    ) -> RBCDFrameResult:
        """Detect collisions among ``(object_id, mesh, model)`` triples.

        ``raster_only=True`` models the Section 3.6 extra time step: the
        frame is rasterized for CD only, skipping fragment processing.
        ``extra_draws`` appends non-collisionable scenery.
        """
        draws = [
            DrawCommand(mesh=mesh, model=model, object_id=object_id)
            for object_id, mesh, model in objects
        ]
        draws.extend(extra_draws)
        aspect = self.config.screen_width / self.config.screen_height
        frame = Frame(
            draws=tuple(draws),
            view=camera.view(),
            projection=camera.projection(aspect),
            raster_only=raster_only,
        )
        return self.detect_frame(frame)


def default_camera_for(
    objects: list[tuple[int, TriangleMesh, Mat4]]
) -> Camera:
    """A perspective camera framing the combined bounds of the objects."""
    from repro.geometry.vec import Vec3

    boxes = [mesh.aabb().transformed(model) for _, mesh, model in objects]
    bounds = boxes[0]
    for box in boxes[1:]:
        bounds = bounds.union(box)
    center = bounds.center
    extent = max(bounds.size.x, bounds.size.y, bounds.size.z, 1e-6)
    eye = Vec3(center.x, center.y, center.z + 2.5 * extent)
    return Camera(
        eye=eye,
        target=center,
        fov_y_deg=45.0,
        near=max(extent * 0.01, 1e-4),
        far=extent * 10.0,
    )


def detect_collisions(
    objects: list[tuple[int, TriangleMesh, Mat4]],
    camera: Camera | None = None,
    resolution: tuple[int, int] = (256, 256),
) -> set[tuple[int, int]]:
    """One-shot render-based collision detection.

    When no camera is given, one is synthesized to frame all objects
    (see :func:`default_camera_for`).  Returns the set of colliding
    ``(id_low, id_high)`` pairs.
    """
    if not objects:
        return set()
    if camera is None:
        camera = default_camera_for(objects)
    return RBCDSystem(resolution=resolution).detect(objects, camera).pairs
