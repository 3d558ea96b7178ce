"""RBCD: Render-Based Collision Detection.

A reproduction of "Ultra-Low Power Render-Based Collision Detection for
CPU/GPU Systems" (de Lucas, Marcuello, Parcerisa, Gonzalez; MICRO-48, 2015).

The package provides:

``repro.geometry``
    Vector/matrix math, triangle meshes, and mesh primitives.
``repro.gpu``
    A functional, cycle-approximate model of a tile-based mobile GPU
    (ARM Mali-400-like) rendering pipeline.
``repro.rbcd``
    The paper's contribution: the RBCD hardware unit (Z-depth Extended
    Buffer, sorted insertion, Z-Overlap Test with FF-Stack).
``repro.physics``
    Software collision-detection baselines (AABB broad phase, GJK/EPA
    narrow phase) and a minimal rigid-body world.
``repro.cpu`` / ``repro.energy``
    Cost models that translate activity into cycles, seconds and joules
    for the CPU and GPU sides.
``repro.scenes``
    Scene/camera/animation substrate plus the four synthetic benchmark
    workloads standing in for the paper's Android games.
``repro.experiments``
    The harness that regenerates every figure and table of the paper's
    evaluation section.

``repro.observability``
    Tracing, typed counters, provenance, statistics, the live monitor
    (sliding windows + watchdog alerting, read in process) and the
    flight recorder.

The top-level module re-exports the high-level API from ``repro.core``
and makes ``repro.observability`` importable as an attribute.
"""

from repro.core import (
    CollisionPair,
    RBCDFrameResult,
    RBCDSystem,
    detect_collisions,
)

# Imported after repro.core: the core import fully initializes the
# gpu/rbcd module chain that repro.observability.provenance reaches
# into, so this order avoids a partial-initialization cycle.
from repro import observability

__version__ = "1.0.0"

__all__ = [
    "CollisionPair",
    "RBCDFrameResult",
    "RBCDSystem",
    "detect_collisions",
    "observability",
    "__version__",
]
