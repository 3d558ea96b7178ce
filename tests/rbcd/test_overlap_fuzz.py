"""Property/fuzz tests for the Z-Overlap Test.

Drives :func:`analyze_pixel_list` (the hardware-literal reference) and
:func:`analyze_tile` (the vectorized lock-step version) over adversarial
and randomized lists, asserting identical pair sets and identical
``stack_overflows`` / ``unmatched_backfaces`` counters.
"""

import numpy as np
import pytest

from repro.gpu.config import RBCDConfig
from repro.rbcd.overlap import analyze_tile
from repro.rbcd.zeb import ZEBTile
from tests.rbcd.zoverlap_oracle import analyze_pixel_list


def tile_from_rows(rows: list[list[tuple[int, int, bool]]]) -> ZEBTile:
    """Build a ZEBTile from per-row ``(z_code, object_id, is_front)``
    lists (already front-to-back sorted, as the ZEB guarantees)."""
    num_rows = len(rows)
    max_len = max((len(r) for r in rows), default=0)
    z = np.zeros((num_rows, max_len), dtype=np.int64)
    oid = np.full((num_rows, max_len), -1, dtype=np.int64)
    front = np.zeros((num_rows, max_len), dtype=bool)
    counts = np.zeros(num_rows, dtype=np.int64)
    for i, row in enumerate(rows):
        counts[i] = len(row)
        for j, (zc, o, f) in enumerate(row):
            z[i, j], oid[i, j], front[i, j] = zc, o, f
    return ZEBTile(
        pixel_index=np.arange(num_rows, dtype=np.int64),
        counts=counts,
        z_codes=z,
        object_ids=oid,
        is_front=front,
        insertions=int(counts.sum()),
    )


def pairs_of(result, row_offset=0):
    """Comparable multiset of pair records (with originating row)."""
    return sorted(
        zip(
            (result.pair_row + row_offset).tolist(),
            result.pair_id_a.tolist(),
            result.pair_id_b.tolist(),
            result.pair_z_front.tolist(),
            result.pair_z_back.tolist(),
        )
    )


def assert_tile_matches_reference(rows, config):
    """analyze_tile ≡ analyze_pixel_list applied row by row."""
    tile = tile_from_rows(rows)
    vec = analyze_tile(tile, config)

    ref_pairs = []
    overflows = 0
    unmatched = 0
    elements = 0
    for i, row in enumerate(rows):
        z = [e[0] for e in row]
        oid = [e[1] for e in row]
        front = [e[2] for e in row]
        ref = analyze_pixel_list(z, oid, front, config)
        ref_pairs.extend(
            (i, a, b, zf, zb)
            for (_, a, b, zf, zb) in pairs_of(ref)
        )
        overflows += ref.stack_overflows
        unmatched += ref.unmatched_backfaces
        elements += ref.elements_read

    assert pairs_of(vec) == sorted(ref_pairs)
    assert vec.stack_overflows == overflows
    assert vec.unmatched_backfaces == unmatched
    assert vec.elements_read == elements
    assert vec.pair_records == len(ref_pairs)


CFG = RBCDConfig()


class TestAdversarialLists:
    def test_all_front_faces_yield_nothing(self):
        rows = [[(z, z % 3, True) for z in range(8)]]
        assert_tile_matches_reference(rows, CFG)
        result = analyze_tile(tile_from_rows(rows), CFG)
        assert result.pair_records == 0
        assert result.unmatched_backfaces == 0

    def test_all_back_faces_all_unmatched(self):
        rows = [[(z, z % 3, False) for z in range(8)]]
        assert_tile_matches_reference(rows, CFG)
        result = analyze_tile(tile_from_rows(rows), CFG)
        assert result.pair_records == 0
        assert result.unmatched_backfaces == 8

    def test_nested_same_id_concave_layers_filtered(self):
        # [1 [1 ]1 ]1 — one concave object's nested layers: the self
        # pairs are filtered, both backs still match their fronts.
        rows = [[(0, 1, True), (1, 1, True), (2, 1, False), (3, 1, False)]]
        assert_tile_matches_reference(rows, CFG)
        result = analyze_tile(tile_from_rows(rows), CFG)
        assert result.pair_records == 0
        assert result.unmatched_backfaces == 0

    def test_nested_concave_layers_inside_another_object(self):
        # [2 [1 [1 ]1 ]1 ]2: object 1's two layers sit inside object 2.
        rows = [[
            (0, 2, True), (1, 1, True), (2, 1, True),
            (3, 1, False), (4, 1, False), (5, 2, False),
        ]]
        assert_tile_matches_reference(rows, CFG)
        result = analyze_tile(tile_from_rows(rows), CFG)
        # Object 2's back face sees both unmatched-above entries of 1.
        assert {(a, b) for a, b in zip(result.pair_id_a, result.pair_id_b)} == {
            (1, 2)
        }

    def test_ff_stack_overflow_exactly_at_boundary(self):
        t = CFG.ff_stack_entries
        # t fronts fill the stack; the (t+1)-th push is dropped, and its
        # back face is left unmatched.
        rows = [
            [(i, i, True) for i in range(t)]
            + [(t, 99, True)]
            + [(t + 1, 99, False)]
        ]
        assert_tile_matches_reference(rows, CFG)
        result = analyze_tile(tile_from_rows(rows), CFG)
        assert result.stack_overflows == 1
        assert result.unmatched_backfaces == 1

    def test_one_below_boundary_does_not_overflow(self):
        t = CFG.ff_stack_entries
        rows = [[(i, i, True) for i in range(t)]]
        assert_tile_matches_reference(rows, CFG)
        assert analyze_tile(tile_from_rows(rows), CFG).stack_overflows == 0

    def test_tiny_stack_interleaved(self):
        cfg = RBCDConfig(ff_stack_entries=2)
        rows = [[
            (0, 1, True), (1, 2, True), (2, 3, True),  # 3rd push dropped
            (3, 2, False), (4, 3, False), (5, 1, False),
        ]]
        assert_tile_matches_reference(rows, cfg)

    def test_back_matches_bottommost_unmatched(self):
        # Two fronts of id 1: the back must match the bottom one first,
        # pairing with everything above it.
        rows = [[
            (0, 1, True), (1, 2, True), (2, 1, True),
            (3, 1, False), (4, 1, False),
        ]]
        assert_tile_matches_reference(rows, CFG)

    def test_rows_of_unequal_length_lockstep(self):
        rows = [
            [(0, 1, True), (2, 2, True), (3, 1, False), (5, 2, False)],
            [(1, 3, True)],
            [(0, 4, False)],
            [],
            [(0, 1, True), (1, 1, False)],
        ]
        # Empty rows cannot occur in a real ZEB (only non-empty lists
        # are stored) but the lock-step loop must still tolerate the
        # padding pattern of short rows.
        assert_tile_matches_reference([r for r in rows if r], CFG)


class TestFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_single_list(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        z = np.sort(rng.integers(0, 50, size=n)).tolist()
        oid = rng.integers(0, 5, size=n).tolist()
        front = (rng.random(n) < 0.5).tolist()
        assert_tile_matches_reference([list(zip(z, oid, front))], CFG)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("t_max", [2, 4, 8])
    def test_random_tile_many_lists(self, seed, t_max):
        cfg = RBCDConfig(ff_stack_entries=t_max)
        rng = np.random.default_rng(1000 * t_max + seed)
        rows = []
        for _ in range(int(rng.integers(1, 12))):
            n = int(rng.integers(1, 20))
            z = np.sort(rng.integers(0, 40, size=n)).tolist()
            oid = rng.integers(0, 4, size=n).tolist()
            front = (rng.random(n) < 0.6).tolist()
            rows.append(list(zip(z, oid, front)))
        assert_tile_matches_reference(rows, cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_front_heavy_lists_overflow_consistently(self, seed):
        cfg = RBCDConfig(ff_stack_entries=3)
        rng = np.random.default_rng(77 + seed)
        rows = []
        for _ in range(6):
            n = int(rng.integers(5, 25))
            z = np.sort(rng.integers(0, 40, size=n)).tolist()
            oid = rng.integers(0, 3, size=n).tolist()
            front = (rng.random(n) < 0.85).tolist()  # mostly pushes
            rows.append(list(zip(z, oid, front)))
        assert_tile_matches_reference(rows, cfg)
        tile = tile_from_rows(rows)
        assert analyze_tile(tile, cfg).stack_overflows > 0
