"""Collision pair records produced by the Z-Overlap Test.

The hardware writes each detected pair ``<Idi, Idcur>`` with its
coordinates to an output buffer headed for system memory (Section 3.5,
step 2).  ``CollisionReport`` is the software-visible aggregation the
CPU would read back: the set of colliding object pairs plus their
per-pixel contact points.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


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


@dataclass
class CollisionReport:
    """All collisions detected in one frame."""

    contacts: dict[CollisionPair, list[ContactPoint]] = field(
        default_factory=lambda: defaultdict(list)
    )
    pair_records_written: int = 0  # raw output-buffer writes (with duplicates)

    @property
    def pairs(self) -> set[CollisionPair]:
        return set(self.contacts.keys())

    def add(self, id_a: int, id_b: int, contact: ContactPoint) -> None:
        self.contacts[CollisionPair.make(id_a, id_b)].append(contact)
        self.pair_records_written += 1

    def contact_count(self, id_a: int, id_b: int) -> int:
        return len(self.contacts.get(CollisionPair.make(id_a, id_b), []))

    def colliding_with(self, object_id: int) -> set[int]:
        """Ids of every object in contact with ``object_id``."""
        out = set()
        for pair in self.contacts:
            if pair.involves(object_id):
                out.add(pair.id_b if pair.id_a == object_id else pair.id_a)
        return out

    def as_sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted((p.id_a, p.id_b) for p in self.contacts)

    def __contains__(self, pair) -> bool:
        if isinstance(pair, CollisionPair):
            return pair in self.contacts
        id_a, id_b = pair
        return CollisionPair.make(id_a, id_b) in self.contacts

    def __len__(self) -> int:
        return len(self.contacts)
