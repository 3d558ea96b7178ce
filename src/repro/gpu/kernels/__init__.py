"""Backend-agnostic kernel API for the per-pixel/per-tile hot loops.

The RBCD pipeline spends essentially all of its time in four loops:
edge-function rasterization, the early-Z depth test, ZEB sorted
insertion, and the Z-Overlap FF-Stack traversal.  This package lifts
them out of the pipeline stages into pure functions over typed arrays
so that interchangeable implementations ("backends") can be swapped in
without touching any stage logic:

``reference``
    The hardware-literal scalar loops — the executable specification.
``vectorized``
    Fully vectorized numpy, the default.  Bit-identical to the
    reference: same IEEE operations in the same per-element order.

Every backend implements the same four kernels (see
:class:`KernelBackend`) and must produce **byte-identical** outputs —
fragments, ZEB contents, overlap pairs, counters — for any input; the
conformance suite (``tests/gpu/test_kernel_conformance.py``) enforces
this against the reference backend.  Backend choice therefore affects
wall time only, never results.

Selection: ``GPUConfig.kernel_backend`` names the backend; its default
comes from the ``REPRO_KERNEL_BACKEND`` environment variable, falling
back to ``"vectorized"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.gpu.config import DEFAULT_KERNEL_BACKEND, KERNEL_BACKEND_ENV

__all__ = [
    "KernelBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "DEFAULT_KERNEL_BACKEND",
    "KERNEL_BACKEND_ENV",
]


@dataclass(frozen=True)
class KernelBackend:
    """The four hot-loop kernels, as pure functions over typed arrays.

    ``rasterize_triangles(xy, z, width, height)``
        ``xy`` is ``(T, 3, 2)`` float64 screen coordinates, ``z`` is
        ``(T, 3)`` float64 vertex depths.  Returns ``(px, py, pz,
        tri)``: integer pixel coordinates, interpolated depths, and the
        producing triangle index, in canonical order: triangle
        ascending, then row-major (row, then column) over the pixels
        each triangle covers.
    ``earlyz_test(pixel, z)``
        ``pixel`` is ``(N,) int64`` flat pixel indices and ``z`` the
        matching depths, both in arrival order.  Returns ``(passed,
        visible)``: the ``(N,)`` bool mask of fragments passing a LESS
        test against the running per-pixel minimum (buffer cleared to
        1.0), and the int64 index of each pixel's last passing
        fragment, in ascending pixel order, one per pixel with a pass.
    ``zeb_insert(pixel, z_codes, object_id, is_front, config,
    tile_pixels)``
        A frame's collisionable fragments in arrival order (depths
        already quantized to integer z codes), each keyed by ``tile *
        tile_pixels + local pixel``.  Every tile has its own ZEB and
        spare pool; returns one :class:`~repro.rbcd.zeb.ZEBTile` whose
        lists are ordered by key, so tile by tile.
    ``zoverlap_traverse(zeb, config)``
        The Z-Overlap Test over every list of that ZEB; returns an
        :class:`~repro.rbcd.overlap.OverlapResult` with pairs in
        canonical lock-step order, ascending (element step, list row,
        FF-Stack slot), and the tallies split per list.
    """

    name: str
    rasterize_triangles: Callable
    earlyz_test: Callable
    zeb_insert: Callable
    zoverlap_traverse: Callable


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register a backend under ``backend.name``."""
    if backend.name in _REGISTRY:
        raise ValueError(f"kernel backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """Every registered backend name (sorted)."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend by name; ``ValueError`` for unknown names."""
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    raise ValueError(
        f"unknown kernel backend {name!r}; registered: "
        f"{', '.join(backend_names())}"
    )


# Backend modules are imported *after* the registry API is defined so
# that modules reached through their imports (repro.rbcd.unit and
# repro.gpu.raster both import this package) can resolve kernels at
# call time even while this module is still initializing.
from repro.gpu.kernels import reference as _reference  # noqa: E402
from repro.gpu.kernels import vectorized as _vectorized  # noqa: E402

register_backend(_reference.BACKEND)
register_backend(_vectorized.BACKEND)
