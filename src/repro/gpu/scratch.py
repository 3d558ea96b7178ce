"""Per-thread grow-only scratch for a frame's frame-sized arrays.

The paper's raster pipeline works out of fixed storage that every tile
and frame reuses.  The simulator's counterpart is one set of named byte
buffers per thread, which only grow.  While a frame is in progress on a
thread (:func:`frame`), :func:`empty` hands out views of that thread's
buffers, so after warm-up a frame allocates almost nothing frame-sized
and the allocator has nothing to give back and fault in again.

* A name backs one live array at a time: a view stays valid until the
  next :func:`empty` call with its name.  Names are byte slots, so two
  stages whose arrays never live at once may share one, whatever the
  dtypes.
* Nothing scratch-backed may outlive its frame; what a frame returns or
  hands an observer is fresh or copied out.
* Outside a frame, and in a frame started while another is in progress
  on the same thread (an observer that renders a frame), :func:`empty`
  allocates fresh, so the outer frame's arrays are never reused.

The buffers belong to the thread, not to a ``GPU``: systems that take
turns on one thread share one set, and two threads never share one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_local = threading.local()


@contextmanager
def frame() -> Iterator[None]:
    """Run the enclosed code as one frame on this thread."""
    depth = getattr(_local, "depth", 0)
    _local.depth = depth + 1
    try:
        yield
    finally:
        _local.depth = depth


def empty(name: str, n: int, dtype) -> np.ndarray:
    """An uninitialised ``(n,)`` array of ``dtype`` backed by slot ``name``."""
    if getattr(_local, "depth", 0) != 1:
        return np.empty(n, dtype)
    dtype = np.dtype(dtype)
    nbytes = n * dtype.itemsize
    buffers = _local.__dict__.setdefault("buffers", {})
    buf = buffers.get(name)
    if buf is None or buf.shape[0] < nbytes:
        # A quarter of headroom: frames vary in size, and pages never
        # written are never faulted in.
        buf = buffers[name] = np.empty(nbytes + nbytes // 4, np.uint8)
    return buf[:nbytes].view(dtype)
