"""The one way to attach a per-frame observer to the GPU pipeline.

The paper's RBCD unit watches the raster stream from the side: it reads
each tile's fragments and never changes the rendered frame.  Every
software observer here is held to the same *zero-feedback* contract,
and :class:`FrameObserver` is its shape.  Pass observers as
``observers=`` to :class:`~repro.gpu.pipeline.GPU`,
:class:`~repro.core.RBCDSystem`, :class:`~repro.hybrid.HybridCDSystem`
or ``CollisionService.register``; ``GPU.render_frame`` is the only
caller of the hooks, for every rendering mode:

* :meth:`begin_frame` before any work, with the frame's ``GPUConfig``;
* :meth:`record_tiles` once per RBCD frame, right after the unit
  absorbs the frame's :class:`~repro.rbcd.unit.RBCDTiles`, even when
  the frame has no tiles (and never without an RBCD unit);
* :meth:`end_frame` with the finished
  :class:`~repro.gpu.pipeline.FrameResult` and the host wall seconds
  the frame took.  A frame that raises gets no ``end_frame``.

Hooks read their arguments and write only the observer's own state, so
every detection output is bit-identical with any set of observers
attached (``tests/integration/test_observer_differential.py``).
"""

from __future__ import annotations

__all__ = ["FrameObserver"]


class FrameObserver:
    """Base class with no-op hooks; override the ones you need."""

    def begin_frame(self, config) -> None:
        """A frame is about to render under ``config``."""

    def record_tiles(self, result) -> None:
        """The frame's :class:`~repro.rbcd.unit.RBCDTiles` was absorbed."""

    def end_frame(self, result, wall_s: float) -> None:
        """The frame finished: its ``FrameResult`` and host wall time."""
