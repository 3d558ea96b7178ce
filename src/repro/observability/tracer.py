"""Stage tracing: nestable spans over wall clock and simulated cycles.

The span hierarchy mirrors the simulator's structure::

    frame
    ├── geometry
    │   ├── geometry.shade
    │   ├── geometry.assemble
    │   └── geometry.bin
    ├── raster
    │   ├── raster.fetch
    │   ├── raster.rasterize
    │   ├── raster.early-z
    │   └── raster.shade
    └── rbcd
        └── rbcd.tile (one per tile with collisionable fragments)
            ├── rbcd.zeb-insert
            └── rbcd.z-overlap

Each span records two clocks:

* **wall seconds** — how long the *host simulation* spent in the stage
  (the perf number ``repro.experiments.bench`` tracks across PRs);
* **simulated cycles** — the modelled hardware's cost of the stage
  (assigned by the pipeline from its cycle model; per-tile RBCD spans
  carry the cycles ``compute_tile`` returned for that tile).

Tracing is strictly observational: span bookkeeping never feeds back
into the cycle model, so enabling a tracer changes no collision pair,
contact record, or simulated cycle count (asserted by
``tests/integration/test_observer_differential.py``).

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span``
is a no-op context manager — the instrumented pipeline pays one
attribute lookup and one ``with`` per stage when tracing is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ensure_tracer",
]


@dataclass
class Span:
    """One traced stage execution."""

    name: str
    category: str = "stage"     # "frame" | "tile" | "stage"
    index: int = 0              # position in the tracer's span list
    parent: int = -1            # index of the enclosing span (-1 = root)
    depth: int = 0
    t_start: float = 0.0        # tracer clock at entry
    t_end: float | None = None  # tracer clock at exit (None while open)
    cycles: float = 0.0         # simulated cycles attributed to the span
    attrs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds (0.0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    def add_cycles(self, n: float) -> None:
        self.cycles += float(n)

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)


class Tracer:
    """Collects a tree of spans, in start order.

    Spans nest via a stack: ``span()`` is a context manager, and spans
    opened inside it become its children.  The span list survives
    ``with`` exits; call :meth:`reset` to start a fresh trace (e.g. per
    frame), or keep accumulating across frames and group by the
    ``frame`` attribute downstream.

    With ``keep_spans=False`` the span list is cleared each time the
    stack empties (a root span closes): listeners still see every
    completed span, but the tracer itself holds at most one frame's
    tree — the mode the flight recorder uses to stay bounded while
    always on.  Span indices then restart per root, which keeps
    parent/child indices consistent within each retained tree.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter, keep_spans: bool = True) -> None:
        self._clock = clock
        self.keep_spans = keep_spans
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._context: dict = {}
        self._listeners: list = []
        self._epoch = clock()

    def add_listener(self, fn) -> None:
        """Call ``fn(span)`` each time a span closes (in close order,
        children before parents).  Listeners must be observational —
        the span is live bookkeeping, not a copy."""
        self._listeners.append(fn)

    @contextmanager
    def span(self, name: str, category: str = "stage", **attrs):
        sp = self.start(name, category, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    @contextmanager
    def context(self, **attrs):
        """Request-scoped span attributes: every span started while the
        context is active carries ``attrs`` (explicit span attrs win on
        key collision).  Contexts nest — inner contexts layer over, and
        restore, the outer ones — which is how the serving frontend
        stamps ``tenant`` / ``stream`` / ``frame_seq`` onto every span
        of a frame, including the per-tile spans recorded at absorb
        time.
        """
        saved = self._context
        self._context = {**saved, **attrs}
        try:
            yield
        finally:
            self._context = saved

    def start(self, name: str, category: str = "stage", **attrs) -> Span:
        """Open a span explicitly (prefer the ``span`` context manager)."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            name=name,
            category=category,
            index=len(self.spans),
            parent=parent.index if parent is not None else -1,
            depth=len(self._stack),
            t_start=self._clock() - self._epoch,
            attrs={**self._context, **attrs} if self._context else dict(attrs),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        if not self._stack or self._stack[-1] is not sp:
            raise RuntimeError(
                f"span {sp.name!r} closed out of order "
                f"(open stack: {[s.name for s in self._stack]})"
            )
        sp.t_end = self._clock() - self._epoch
        self._stack.pop()
        for fn in self._listeners:
            fn(sp)
        if not self.keep_spans and not self._stack:
            self.spans = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def add_cycles(self, n: float) -> None:
        """Attribute simulated cycles to the innermost open span."""
        if self._stack:
            self._stack[-1].add_cycles(n)

    def reset(self) -> None:
        """Drop collected spans and re-zero the clock epoch."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset with open spans: {[s.name for s in self._stack]}"
            )
        self.spans = []
        self._epoch = self._clock()

    # -- queries ---------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, sp: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == sp.index]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent == -1]

    def total_wall_s(self, name: str) -> float:
        return sum(s.wall_s for s in self.by_name(name))

    def total_cycles(self, name: str) -> float:
        return sum(s.cycles for s in self.by_name(name))


class _NullSpan:
    """Inert span: every mutation is a no-op, every read is zero."""

    __slots__ = ()

    name = ""
    category = "stage"
    index = -1
    parent = -1
    depth = 0
    cycles = 0.0
    wall_s = 0.0
    closed = True
    attrs: dict = {}

    def __setattr__(self, key, value) -> None:
        # ``span.cycles = x`` on the null span silently vanishes, so
        # instrumented code never branches on whether tracing is on.
        pass

    def add_cycles(self, n: float) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: structurally compatible, records nothing."""

    enabled = False
    spans: list = []
    keep_spans = False

    def add_listener(self, fn) -> None:
        pass

    @contextmanager
    def span(self, name: str, category: str = "stage", **attrs):
        yield _NULL_SPAN

    @contextmanager
    def context(self, **attrs):
        yield

    def start(self, name: str, category: str = "stage", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def end(self, sp) -> None:
        pass

    @property
    def current(self) -> None:
        return None

    def add_cycles(self, n: float) -> None:
        pass

    def reset(self) -> None:
        pass

    def by_name(self, name: str) -> list:
        return []

    def children(self, sp) -> list:
        return []

    def roots(self) -> list:
        return []

    def total_wall_s(self, name: str) -> float:
        return 0.0

    def total_cycles(self, name: str) -> float:
        return 0.0


NULL_TRACER = NullTracer()


def ensure_tracer(tracer) -> "Tracer | NullTracer":
    """``None`` -> the shared null tracer; anything else passes through."""
    return NULL_TRACER if tracer is None else tracer
