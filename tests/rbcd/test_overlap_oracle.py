"""Independent semantic oracle for the Z-Overlap Test.

The FF-Stack algorithm is the paper's *hardware* for answering a purely
geometric question: per pixel, do two objects' depth intervals overlap?
This oracle answers the same question directly — pair consecutive
front/back faces of each object into intervals, intersect the interval
sets — with none of the hardware's structure.  On well-formed lists
(every front eventually closed, properly nested arrivals from closed
meshes) the two must agree; property tests drive both with randomized
well-formed bracket sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import RBCDConfig
from tests.rbcd.zoverlap_oracle import analyze_pixel_list

CFG = RBCDConfig(ff_stack_entries=32, list_length=32, z_bits=18, id_bits=13)


def interval_oracle(z_codes, object_ids, is_front):
    """Ground truth: object depth intervals from front/back pairing.

    Each object's fronts are matched to its following backs in list
    order (nesting order for concave objects); two objects collide if
    any interval of one strictly or touching-overlaps any of the other.
    """
    intervals = {}
    open_stacks = {}
    for z, oid, front in zip(z_codes, object_ids, is_front):
        if front:
            open_stacks.setdefault(oid, []).append(z)
        else:
            stack = open_stacks.get(oid)
            if not stack:
                continue  # unmatched back face: ignored, as in hardware
            start = stack.pop(0)  # bottommost unmatched, like the FF-Stack
            intervals.setdefault(oid, []).append((start, z))
    pairs = set()
    ids = sorted(intervals)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            for lo1, hi1 in intervals[a]:
                for lo2, hi2 in intervals[b]:
                    if lo1 <= hi2 and lo2 <= hi1:
                        pairs.add((a, b))
    return pairs


def well_formed_lists(max_objects=3, max_intervals=3):
    """Strategy: sorted lists built from overlapping object intervals."""

    @st.composite
    def build(draw):
        events = []
        for oid in range(draw(st.integers(1, max_objects))):
            for _ in range(draw(st.integers(1, max_intervals))):
                lo = draw(st.integers(0, 40))
                hi = draw(st.integers(lo, 44))
                events.append((lo, 0, oid, True))   # front before back on tie
                events.append((hi, 1, oid, False))
        events.sort(key=lambda e: (e[0], e[1]))
        z = [e[0] for e in events]
        ids = [e[2] for e in events]
        fronts = [e[3] for e in events]
        return z, ids, fronts

    return build()


class TestOracleAgreement:
    @settings(max_examples=200, deadline=None)
    @given(well_formed_lists())
    def test_ffstack_matches_interval_oracle(self, data):
        z, ids, fronts = data
        result = analyze_pixel_list(z, ids, fronts, CFG)
        found = {
            tuple(sorted(p))
            for p in zip(result.pair_id_a.tolist(), result.pair_id_b.tolist())
        }
        expected = interval_oracle(z, ids, fronts)
        assert found == expected, (z, ids, fronts)

    def test_oracle_self_check_case2(self):
        # [A [B ]A ]B
        assert interval_oracle([0, 1, 2, 3], [1, 2, 1, 2],
                               [True, True, False, False]) == {(1, 2)}

    def test_oracle_self_check_disjoint(self):
        assert interval_oracle([0, 1, 2, 3], [1, 1, 2, 2],
                               [True, False, True, False]) == set()

    def test_oracle_touching_intervals(self):
        # ]A and [B at the same depth: closed intervals touch -> contact
        # ... but the list order decides for the hardware; build the
        # interleaved order where both agree.
        z = [0, 2, 2, 4]
        ids = [1, 2, 1, 2]
        fronts = [True, True, False, False]
        assert interval_oracle(z, ids, fronts) == {(1, 2)}
        result = analyze_pixel_list(z, ids, fronts, CFG)
        found = {tuple(sorted(p)) for p in zip(result.pair_id_a, result.pair_id_b)}
        assert found == {(1, 2)}
