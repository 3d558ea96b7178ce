"""Collision pair records produced by the Z-Overlap Test.

The hardware writes each detected pair ``<Idi, Idcur>`` with its
coordinates to an output buffer headed for system memory (Section 3.5,
step 2).  ``CollisionReport`` is that buffer as the CPU reads it back,
one column per record field, with the set of colliding object pairs
and their per-pixel contact points as views.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np


def canonical_pair(id_a: int, id_b: int) -> tuple[int, int]:
    """Order-independent key for an object pair."""
    return (id_a, id_b) if id_a <= id_b else (id_b, id_a)


@dataclass(frozen=True, slots=True)
class ContactPoint:
    """One pair occurrence: screen pixel plus the overlapping depths.

    ``z_front`` / ``z_back`` bound the detected overlap interval at this
    pixel (quantized-depth units mapped back to [0, 1]).
    """

    x: int
    y: int
    z_front: float
    z_back: float


@dataclass(frozen=True, slots=True)
class CollisionPair:
    """An unordered pair of collisionable object ids."""

    id_a: int
    id_b: int

    def __post_init__(self) -> None:
        if self.id_a > self.id_b:
            raise ValueError("CollisionPair requires id_a <= id_b; use make()")
        if self.id_a == self.id_b:
            raise ValueError("an object cannot collide with itself")

    @staticmethod
    def make(id_a: int, id_b: int) -> "CollisionPair":
        a, b = canonical_pair(id_a, id_b)
        return CollisionPair(a, b)

    def involves(self, object_id: int) -> bool:
        return object_id in (self.id_a, self.id_b)


def _column(dtype):
    return field(default_factory=lambda: np.empty(0, dtype=dtype))


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """All collisions detected in one frame: the read-back output buffer.

    One entry per pair record written, as parallel columns in
    output-buffer (tile-schedule) order: the stacked front face's
    object (``id_a``, Idi) and the closing back face's (``id_b``,
    Idcur), the witness pixel, and the overlap interval's depths.  The
    pair and contact views are computed from the columns.
    """

    id_a: np.ndarray = _column(np.int64)
    id_b: np.ndarray = _column(np.int64)
    x: np.ndarray = _column(np.int64)
    y: np.ndarray = _column(np.int64)
    z_front: np.ndarray = _column(np.float64)
    z_back: np.ndarray = _column(np.float64)

    def __post_init__(self) -> None:
        for f in fields(self):
            dtype = np.float64 if f.name.startswith("z_") else np.int64
            object.__setattr__(
                self, f.name, np.asarray(getattr(self, f.name), dtype=dtype)
            )
        if len({getattr(self, f.name).shape for f in fields(self)}) != 1:
            raise ValueError("report columns must be parallel")

    @property
    def pair_records_written(self) -> int:
        """Raw output-buffer writes (duplicates included)."""
        return int(self.id_a.shape[0])

    @property
    def pairs(self) -> set[CollisionPair]:
        """The distinct colliding pairs."""
        return {
            CollisionPair.make(a, b)
            for a, b in set(zip(self.id_a.tolist(), self.id_b.tolist()))
        }

    @cached_property
    def contacts(self) -> dict[CollisionPair, list[ContactPoint]]:
        """Each pair's contact points: pairs in order of first record,
        each pair's points in record order."""
        out: dict[CollisionPair, list[ContactPoint]] = {}
        for a, b, *point in zip(
            self.id_a.tolist(), self.id_b.tolist(), self.x.tolist(),
            self.y.tolist(), self.z_front.tolist(), self.z_back.tolist(),
        ):
            out.setdefault(CollisionPair.make(a, b), []).append(
                ContactPoint(*point)
            )
        return out

    def contact_count(self, id_a: int, id_b: int) -> int:
        return len(self.contacts.get(CollisionPair.make(id_a, id_b), []))

    def colliding_with(self, object_id: int) -> set[int]:
        """Ids of every object in contact with ``object_id``."""
        out = set()
        for pair in self.pairs:
            if pair.involves(object_id):
                out.add(pair.id_b if pair.id_a == object_id else pair.id_a)
        return out

    def as_sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted((p.id_a, p.id_b) for p in self.pairs)

    def __contains__(self, pair) -> bool:
        if not isinstance(pair, CollisionPair):
            pair = CollisionPair.make(*pair)
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)
