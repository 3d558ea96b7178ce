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


def report_of(*records) -> CollisionReport:
    """A report from ``(id_a, id_b, x, y)`` records, in output-buffer
    order; every record's depths are 0.25 / 0.5."""
    id_a, id_b, x, y = (list(column) for column in zip(*records))
    n = len(records)
    return CollisionReport(id_a, id_b, x, y, [0.25] * n, [0.5] * n)


class TestCollisionReport:
    def test_add_and_query(self):
        report = report_of((2, 1, 0, 0))
        assert (1, 2) in report
        assert (2, 1) in report
        assert (1, 3) not in report
        assert report.contact_count(1, 2) == 1
        assert report.contact_count(2, 1) == 1
        assert report.contact_count(1, 3) == 0
        assert report.pairs == {CollisionPair(1, 2)}

    def test_records_counted_with_duplicates(self):
        report = report_of((1, 2, 0, 0), (1, 2, 1, 0))
        assert len(report) == 1
        assert report.pair_records_written == 2
        assert report.contact_count(1, 2) == 2

    def test_colliding_with(self):
        report = report_of((1, 2, 0, 0), (1, 3, 0, 0), (4, 5, 0, 0))
        assert report.colliding_with(1) == {2, 3}
        assert report.colliding_with(9) == set()

    def test_as_sorted_pairs(self):
        report = report_of((5, 4, 0, 0), (1, 2, 0, 0))
        assert report.as_sorted_pairs() == [(1, 2), (4, 5)]

    def test_contains_with_pair_object(self):
        report = report_of((1, 2, 0, 0))
        assert CollisionPair.make(1, 2) in report
        assert CollisionPair.make(1, 3) not in report

    def test_contacts_keep_first_appearance_and_record_order(self):
        report = report_of(
            (7, 3, 5, 1), (1, 2, 0, 0), (3, 7, 6, 1), (2, 1, 9, 9),
            (7, 3, 4, 2),
        )
        contacts = report.contacts
        assert list(contacts) == [CollisionPair(3, 7), CollisionPair(1, 2)]
        assert contacts[CollisionPair(3, 7)] == [
            ContactPoint(5, 1, 0.25, 0.5),
            ContactPoint(6, 1, 0.25, 0.5),
            ContactPoint(4, 2, 0.25, 0.5),
        ]
        assert contacts[CollisionPair(1, 2)] == [
            ContactPoint(0, 0, 0.25, 0.5),
            ContactPoint(9, 9, 0.25, 0.5),
        ]
        point = contacts[CollisionPair(1, 2)][0]
        assert [type(v) for v in (point.x, point.y, point.z_front)] == [
            int, int, float,
        ]

    def test_empty_report(self):
        report = CollisionReport()
        assert report.pair_records_written == 0
        assert len(report) == 0 and report.contacts == {}
        assert report.as_sorted_pairs() == []

    def test_columns_must_be_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            CollisionReport([1], [2], [0], [0], [0.1], [])

    def test_self_pair_record_rejected_by_its_views(self):
        with pytest.raises(ValueError):
            report_of((3, 3, 0, 0)).pairs
