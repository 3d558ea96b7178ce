"""The frame pass of ``compute_tile`` against the per-tile oracle.

:func:`repro.rbcd.unit.compute_tile` builds one ZEB and runs one
lock-step Z-Overlap pass over every tile of a frame, and returns one
columnar result.  Each tile's slice of it must equal what the tile
gives computed alone (``tests/rbcd/tile_oracle.py``'s
:func:`compute_tile_oracle`) in every field, dtypes and padding
included, and a unit that absorbed it must hold what absorbing the
oracle's tiles one by one gives (:func:`absorb_oracle`): counters,
report columns in order, and the contact view.  The generated batches
cover M ∈ {1, 2, 4, 8, 16}, spare pools of 0/1/3/12 entries, FF-Stacks
of 1/2/8 entries, empty and missing neighbour tiles, one-fragment
tiles, z-code ties and the ids 0 and 8191.  Mutants of the frame pass
— spares ranked frame-wide, pairs left in frame order, two tiles'
records swapped, a pair attributed to the neighbouring tile, a tile's
overlap cycles off by one — must be caught.

The generated batches run on the vectorized kernels, and once more on
the scalar oracles (the ``reference_kernels`` fixture).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gpu.config import GPUConfig
from repro.rbcd import unit as unit_module
from repro.rbcd import zeb as zeb_module
from repro.rbcd.unit import RBCDUnit, compute_tile
from tests.rbcd.tile_oracle import frame_mismatches, tile_batch, tile_slices

SCREEN = (64, 48)  # 4 x 3 tiles of 16 x 16
TILES = SCREEN[0] // 16 * (SCREEN[1] // 16)
# Depths that quantize to equal z codes (0.5 and 0.5 + 1e-7 share a
# code at 18 bits), so ties in arrival order are common.
DEPTHS = [0.1, 0.25, 0.5, 0.5 + 1e-7, 0.75, 0.9]
IDS = [0, 1, 2, 3, 8191]


def config_for(m: int, spares: int, stack: int) -> GPUConfig:
    return GPUConfig().with_screen(*SCREEN).with_rbcd(
        list_length=m, spare_entries_per_tile=spares, ff_stack_entries=stack
    )


def fragments_at(tile: int, rows):
    """One tile's fragment arrays from ``(local pixel, depth, id, front)``
    rows; local pixels are mapped into the tile's global coordinates."""
    tiles_x = SCREEN[0] // 16
    x0, y0 = (tile % tiles_x) * 16, (tile // tiles_x) * 16
    return (
        tile,
        [x0 + r[0] % 16 for r in rows],
        [y0 + r[0] // 16 for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
    )


# Two hot pixels per tile (plus a far one) force overflow at small M
# and give most lists several objects; zero-length tiles are empty
# neighbours.
fragment_rows = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 255]),
        st.sampled_from(DEPTHS),
        st.sampled_from(IDS),
        st.booleans(),
    ),
    min_size=0,
    max_size=40,
)
batches = st.lists(
    st.tuples(st.integers(0, TILES - 1), fragment_rows),
    max_size=6,
    unique_by=lambda tile: tile[0],
).map(lambda tiles: tile_batch(
    *(fragments_at(t, rows) for t, rows in sorted(tiles, key=lambda x: x[0]))
))


# ---------------------------------------------------------------------------
# Witnesses: each catches one mutant of the frame pass
# ---------------------------------------------------------------------------


def spare_witness():
    """Two tiles, each overflowing one hot pixel: with one spare per
    tile both get a spare; a frame-wide pool would give tile 5 none."""
    rows = [(7, 0.1 * k, k, True) for k in range(1, 4)]
    return config_for(1, 1, 8), tile_batch(
        fragments_at(0, rows), fragments_at(5, rows)
    )


def pair_order_witness():
    """Tile 0 emits its pairs at element step 3, tile 1 at step 2, so
    frame order interleaves them: tile 1's pair comes first."""
    late = [(0, 0.1, 1, True), (0, 0.2, 3, True), (0, 0.3, 2, True),
            (0, 0.4, 1, False)]
    early = [(0, 0.1, 1, True), (0, 0.2, 2, True), (0, 0.3, 1, False)]
    return config_for(8, 0, 8), tile_batch(
        fragments_at(0, late), fragments_at(1, early)
    )


def swap_witness():
    """Tiles 0 and 1 each emit one pair, at different local pixels."""
    crossing = [(1, 0.1, 1, True), (1, 0.2, 2, True), (1, 0.3, 1, False),
                (1, 0.4, 2, False)]
    other = [(17, 0.1, 3, True), (17, 0.2, 4, True), (17, 0.3, 3, False),
             (17, 0.4, 4, False)]
    return config_for(8, 0, 8), tile_batch(
        fragments_at(0, crossing), fragments_at(1, other)
    )


@settings(max_examples=150, deadline=None)
@example(batch=spare_witness()[1], m=1, spares=1, stack=8)
@example(batch=pair_order_witness()[1], m=8, spares=0, stack=8)
@given(
    batch=batches,
    m=st.sampled_from([1, 2, 4, 8, 16]),
    spares=st.sampled_from([0, 1, 3, 12]),
    stack=st.sampled_from([1, 2, 8]),
)
def test_frame_pass_matches_per_tile_oracle(batch, m, spares, stack):
    assert frame_mismatches(config_for(m, spares, stack), batch) == []


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(batch=spare_witness()[1], m=1, spares=1, stack=8)
@example(batch=pair_order_witness()[1], m=8, spares=0, stack=8)
@given(
    batch=batches,
    m=st.sampled_from([1, 2, 4, 8, 16]),
    spares=st.sampled_from([0, 1, 3, 12]),
    stack=st.sampled_from([1, 2, 8]),
)
def test_frame_pass_matches_per_tile_oracle_on_reference_kernels(
    reference_kernels, batch, m, spares, stack
):
    assert frame_mismatches(config_for(m, spares, stack), batch) == []


@pytest.mark.parametrize("m", [1, 2, 8])
def test_one_fragment_tiles(m):
    batch = tile_batch(*(
        fragments_at(tile, [(tile % 4, DEPTHS[tile % 6], IDS[tile % 5], True)])
        for tile in range(TILES)
    ))
    config = config_for(m, 1, 2)
    assert frame_mismatches(config, batch) == []
    result = compute_tile(config, batch)
    assert result.insertions.tolist() == [1] * TILES
    assert result.pair_offsets.tolist() == [0] * (TILES + 1)


def test_empty_batch_and_empty_tiles():
    config = config_for(2, 1, 2)
    assert frame_mismatches(config, tile_batch()) == []
    none = compute_tile(config, tile_batch())
    assert len(none) == 0
    assert (none.zeb.insertions, none.overlap.pair_records) == (0, 0)
    unit = RBCDUnit(config)
    unit.absorb(none)
    assert unit.report.pair_records_written == 0 and len(unit.report) == 0
    batch = tile_batch(
        fragments_at(0, []),
        fragments_at(1, [(0, 0.1, 1, True), (0, 0.2, 2, True),
                         (0, 0.3, 1, False), (0, 0.4, 2, False)]),
        fragments_at(5, []),
    )
    assert frame_mismatches(config, batch) == []
    empty = tile_slices(config, compute_tile(config, batch))[0]
    assert (empty.insertion_cycles, empty.overlap_cycles) == (0.0, 0.0)
    assert empty.zeb.z_codes.shape == (0, 0)


def test_mutant_frame_wide_spares_is_caught(monkeypatch):
    real = zeb_module.overflow_arrivals
    monkeypatch.setattr(
        zeb_module,
        "overflow_arrivals",
        lambda pixel, config, tile_pixels: real(pixel, config, 1 << 62),
    )
    config, batch = spare_witness()
    diffs = frame_mismatches(config, batch)
    assert "result[1].zeb.spare_allocations: 0 != 1" in diffs


def test_mutant_pairs_in_frame_order_is_caught(monkeypatch):
    monkeypatch.setattr(
        unit_module,
        "_by_tile",
        lambda slot, n: (np.arange(slot.shape[0]), np.bincount(slot, minlength=n)),
    )
    config, batch = pair_order_witness()
    diffs = frame_mismatches(config, batch)
    assert "result[0].overlap.pair_id_a: values" in diffs


def test_mutant_records_swapped_across_tiles_is_caught(monkeypatch):
    real = unit_module._by_tile

    def swapped(slot, n):
        order, records = real(slot, n)
        a, b = records[:2].tolist()
        return np.r_[order[a:a + b], order[:a], order[a + b:]], records

    monkeypatch.setattr(unit_module, "_by_tile", swapped)
    config, batch = swap_witness()
    diffs = frame_mismatches(config, batch)
    assert "result[0].overlap.pair_id_a: values" in diffs
    assert "absorbed.columns.x: values" in diffs


def test_mutant_pair_of_the_neighbouring_tile_is_caught(monkeypatch):
    real = unit_module._by_tile

    def shifted(slot, n):
        order, records = real(slot, n)
        moved = np.zeros_like(records)
        moved[:2] = (-1, 1)  # tile 0's last record goes to tile 1
        return order, records + moved

    monkeypatch.setattr(unit_module, "_by_tile", shifted)
    config, batch = swap_witness()
    diffs = frame_mismatches(config, batch)
    assert "result[0].overlap.pair_records: 0 != 1" in diffs
    assert "result[1].overlap.pair_records: 2 != 1" in diffs


def test_mutant_overlap_cycles_off_by_one_is_caught(monkeypatch):
    real = unit_module._tile_columns

    def off_by_one(*args):
        result = real(*args)
        result.overlap_cycles[1] += 1.0
        return result

    monkeypatch.setattr(unit_module, "_tile_columns", off_by_one)
    config, batch = swap_witness()
    assert frame_mismatches(config, batch) == [
        "result[1].overlap_cycles: 15.0 != 14.0"
    ]
