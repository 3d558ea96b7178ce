"""Property-based ZEB sorted-insertion invariants (all M in {2,4,8,16}).

Complements ``test_zeb.py`` (which checks the vectorized builder against
the hardware-literal reference): these properties state what a correct
ZEB *is*, independently of either implementation —

* every per-pixel list is monotone in z, front-to-back;
* equal-z runs preserve arrival order (stable ties);
* a list never exceeds its capacity (M plus granted spares);
* with no spares, a list holds exactly the M nearest fragments seen;
* overflow accounting: every arrival that finds a full list either
  takes a spare or is an overflow event — nothing else;
* entries beyond ``counts`` are padding (object id -1).

Each property runs against both implementations so a bug in one cannot
hide behind agreement with the other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import RBCDConfig
from repro.rbcd.zeb import build_zeb, insert_sequential

TILE_PIXELS = 64
M_VALUES = (2, 4, 8, 16)

# Few pixels and a narrow z range force deep lists, z ties, and
# overflow at every M under test.
fragments_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # pixel
        st.integers(min_value=0, max_value=20),   # z code
        st.integers(min_value=0, max_value=5),    # object id
        st.booleans(),                            # front face
    ),
    max_size=120,
)

spares_strategy = st.integers(min_value=0, max_value=6)


def _config(m: int, spares: int = 0) -> RBCDConfig:
    return RBCDConfig(list_length=m, z_bits=18, id_bits=13,
                      spare_entries_per_tile=spares)


def _both_tiles(fragments, config):
    seq = insert_sequential(fragments, config, TILE_PIXELS)
    if fragments:
        pixel, z, oid, front = map(np.array, zip(*fragments))
    else:
        pixel = z = oid = np.empty(0, dtype=np.int64)
        front = np.empty(0, dtype=bool)
    vec = build_zeb(pixel, z, oid, np.array(front, dtype=bool),
                    config, TILE_PIXELS)
    return seq, vec


def _expected_survivors(fragments, m: int) -> dict[int, list[tuple]]:
    """Reference keep-M-nearest filter (no spares): per pixel, the M
    nearest fragments under a stable (z, arrival) order."""
    by_pixel: dict[int, list[tuple]] = {}
    for arrival, (pixel, z, oid, front) in enumerate(fragments):
        by_pixel.setdefault(pixel, []).append((z, arrival, oid, front))
    return {
        pixel: sorted(entries)[:m] for pixel, entries in by_pixel.items()
    }


@pytest.mark.parametrize("m", M_VALUES)
class TestSortedInsertionInvariants:
    @settings(max_examples=60, deadline=None)
    @given(frags=fragments_strategy, spares=spares_strategy)
    def test_lists_monotone_front_to_back(self, m, frags, spares):
        for tile in _both_tiles(frags, _config(m, spares)):
            for row in range(tile.non_empty_lists):
                n = int(tile.counts[row])
                z = tile.z_codes[row, :n]
                assert (np.diff(z) >= 0).all(), z.tolist()

    @settings(max_examples=60, deadline=None)
    @given(frags=fragments_strategy, spares=spares_strategy)
    def test_equal_z_ties_keep_arrival_order(self, m, frags, spares):
        # Within an equal-z run, surviving elements must appear in the
        # order their fragments arrived — the strict-compare insertion
        # never swaps equals.
        arrival_of = {}
        for arrival, (pixel, z, oid, front) in enumerate(frags):
            arrival_of.setdefault((pixel, z), []).append((arrival, oid, front))
        for tile in _both_tiles(frags, _config(m, spares)):
            for row in range(tile.non_empty_lists):
                pixel = int(tile.pixel_index[row])
                n = int(tile.counts[row])
                z = tile.z_codes[row, :n]
                ids = tile.object_ids[row, :n]
                fronts = tile.is_front[row, :n]
                for z_value in np.unique(z):
                    run = np.flatnonzero(z == z_value)
                    got = [(int(ids[i]), bool(fronts[i])) for i in run]
                    candidates = [
                        (oid, front)
                        for _, oid, front in sorted(arrival_of[(pixel, int(z_value))])
                    ]
                    # The run must be a prefix-preserving subsequence of
                    # the arrivals; with drop-farthest semantics on one
                    # z value it is exactly the first len(run) arrivals.
                    assert got == candidates[: len(run)]

    @settings(max_examples=60, deadline=None)
    @given(frags=fragments_strategy, spares=spares_strategy)
    def test_counts_within_capacity_and_padding(self, m, frags, spares):
        config = _config(m, spares)
        for tile in _both_tiles(frags, config):
            assert (tile.counts >= 1).all()  # only non-empty lists stored
            assert (tile.counts <= m + tile.spare_allocations).all()
            assert int(tile.counts.sum()) <= len(frags)
            for row in range(tile.non_empty_lists):
                n = int(tile.counts[row])
                assert (tile.object_ids[row, n:] == -1).all()

    @settings(max_examples=60, deadline=None)
    @given(frags=fragments_strategy)
    def test_keeps_exactly_m_nearest(self, m, frags):
        expected = _expected_survivors(frags, m)
        for tile in _both_tiles(frags, _config(m)):
            assert tile.non_empty_lists == len(expected)
            for row in range(tile.non_empty_lists):
                pixel = int(tile.pixel_index[row])
                n = int(tile.counts[row])
                want = expected[pixel]
                assert n == len(want)
                got = list(zip(
                    tile.z_codes[row, :n].tolist(),
                    tile.object_ids[row, :n].tolist(),
                    tile.is_front[row, :n].tolist(),
                ))
                assert got == [(z, oid, front) for z, _, oid, front in want]

    @settings(max_examples=60, deadline=None)
    @given(frags=fragments_strategy, spares=spares_strategy)
    def test_overflow_and_spare_accounting(self, m, frags, spares):
        # Each arrival whose pixel already holds >= capacity elements is
        # a full-list attempt; with rank counted against the base M,
        # attempts = #(per-pixel arrival rank >= M), and every attempt
        # is resolved as exactly one spare grant or one overflow event.
        ranks: dict[int, int] = {}
        attempts = 0
        for pixel, _, _, _ in frags:
            if ranks.get(pixel, 0) >= m:
                attempts += 1
            ranks[pixel] = ranks.get(pixel, 0) + 1
        for tile in _both_tiles(frags, _config(m, spares)):
            assert tile.insertions == len(frags)
            assert tile.spare_allocations == min(spares, attempts)
            assert tile.overflow_events + tile.spare_allocations == attempts

    @settings(max_examples=40, deadline=None)
    @given(frags=fragments_strategy, spares=spares_strategy)
    def test_spares_never_lose_elements(self, m, frags, spares):
        # Growing the spare pool monotonically grows (or keeps) the
        # number of surviving elements — spares only add capacity.
        base_seq, base_vec = _both_tiles(frags, _config(m, 0))
        spared_seq, spared_vec = _both_tiles(frags, _config(m, spares))
        assert spared_seq.elements >= base_seq.elements
        assert spared_vec.elements >= base_vec.elements
        assert spared_seq.elements - base_seq.elements <= spares
