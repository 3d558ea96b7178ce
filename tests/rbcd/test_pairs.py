"""Collision pair / report tests."""

import pytest

from repro.rbcd.pairs import (
    CollisionPair,
    CollisionReport,
    ContactPoint,
    canonical_pair,
)


class TestCollisionPair:
    def test_make_orders_ids(self):
        assert CollisionPair.make(5, 2) == CollisionPair(2, 5)

    def test_unordered_construction_rejected(self):
        with pytest.raises(ValueError):
            CollisionPair(5, 2)

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            CollisionPair.make(3, 3)

    def test_involves(self):
        pair = CollisionPair.make(1, 2)
        assert pair.involves(1) and pair.involves(2)
        assert not pair.involves(3)

    def test_canonical_pair(self):
        assert canonical_pair(9, 4) == (4, 9)

    def test_hashable(self):
        assert {CollisionPair.make(1, 2), CollisionPair.make(2, 1)} == {
            CollisionPair(1, 2)
        }


class TestCollisionReport:
    def contact(self, x=0, y=0):
        return ContactPoint(x, y, 0.25, 0.5)

    def test_add_and_query(self):
        report = CollisionReport()
        report.add(2, 1, self.contact())
        assert (1, 2) in report
        assert (2, 1) in report
        assert (1, 3) not in report
        assert report.contact_count(1, 2) == 1

    def test_records_counted_with_duplicates(self):
        report = CollisionReport()
        report.add(1, 2, self.contact(0, 0))
        report.add(1, 2, self.contact(1, 0))
        assert len(report) == 1
        assert report.pair_records_written == 2

    def test_colliding_with(self):
        report = CollisionReport()
        report.add(1, 2, self.contact())
        report.add(1, 3, self.contact())
        report.add(4, 5, self.contact())
        assert report.colliding_with(1) == {2, 3}
        assert report.colliding_with(9) == set()

    def test_as_sorted_pairs(self):
        report = CollisionReport()
        report.add(5, 4, self.contact())
        report.add(1, 2, self.contact())
        assert report.as_sorted_pairs() == [(1, 2), (4, 5)]

    def test_contains_with_pair_object(self):
        report = CollisionReport()
        report.add(1, 2, self.contact())
        assert CollisionPair.make(1, 2) in report
