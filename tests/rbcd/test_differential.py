"""Differential harness: sequential spec ≡ vectorized ≡ tile loop.

Randomized (seeded) fragment soups are pushed through the three
implementations of the ZEB insertion path —

* :func:`insert_sequential`, the hardware-literal executable spec;
* :func:`build_zeb`, the vectorized builder;
* the frame pass (:func:`gather_tile_tasks` → :class:`TileExecutor` →
  :func:`compute_tile` → absorb), against the per-tile oracle in
  ``tests/rbcd/tile_oracle.py``;

— and every observable is asserted bit-identical: z-codes, object ids,
facing bits, per-list counts, and the overflow/spare counters, across
M ∈ {2, 4, 8}, spare-pool on/off, and several seeded soups.
"""

import numpy as np
import pytest

from repro.gpu.config import GPUConfig, RBCDConfig
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.raster import FragmentSoup
from repro.rbcd.element import quantize_depth
from repro.rbcd.unit import RBCDUnit
from repro.rbcd.zeb import build_zeb, insert_sequential
from tests.rbcd.tile_oracle import compute_tile_oracle

TILE_PIXELS = 256  # one 16x16 tile


def random_tile_fragments(seed: int, n: int = 400, hot_pixels: int = 5):
    """A seeded fragment soup for one tile, skewed to overflow.

    Half the fragments pile onto a few hot pixels (forcing list
    overflow at small M), the rest spread uniformly.
    """
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, TILE_PIXELS, size=hot_pixels)
    pixel = np.where(
        rng.random(n) < 0.5,
        hot[rng.integers(0, hot_pixels, size=n)],
        rng.integers(0, TILE_PIXELS, size=n),
    ).astype(np.int64)
    z = rng.random(n)
    oid = rng.integers(0, 6, size=n).astype(np.int64)
    front = rng.random(n) < 0.5
    return pixel, z, oid, front


def assert_zeb_equal(a, b):
    """Bit-identical ZEB contents and counters."""
    np.testing.assert_array_equal(a.pixel_index, b.pixel_index)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.z_codes, b.z_codes)
    np.testing.assert_array_equal(a.object_ids, b.object_ids)
    np.testing.assert_array_equal(a.is_front, b.is_front)
    assert a.insertions == b.insertions
    assert a.overflow_events == b.overflow_events
    assert a.spare_allocations == b.spare_allocations


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("spare", [0, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sequential_equals_vectorized(m, spare, seed):
    config = RBCDConfig(list_length=m, spare_entries_per_tile=spare)
    pixel, z, oid, front = random_tile_fragments(seed)
    codes = quantize_depth(z, config)

    reference = insert_sequential(
        list(zip(pixel.tolist(), codes.tolist(), oid.tolist(), front.tolist())),
        config,
        TILE_PIXELS,
    )
    vectorized = build_zeb(pixel, codes, oid, front, config, TILE_PIXELS)
    assert_zeb_equal(reference, vectorized)
    if spare == 0 and m == 2:
        assert reference.overflow_events > 0  # the soup actually overflows


@pytest.mark.parametrize("m", [2, 4, 8])
def test_sequential_equals_vectorized_with_duplicate_depths(m):
    # Equal z codes must keep arrival order in both paths.
    config = RBCDConfig(list_length=m)
    rng = np.random.default_rng(7)
    n = 200
    pixel = rng.integers(0, 4, size=n).astype(np.int64)  # 4 hot pixels
    codes = rng.integers(0, 3, size=n).astype(np.int64)  # heavy z ties
    oid = np.arange(n, dtype=np.int64) % 5
    front = (np.arange(n) % 2) == 0

    reference = insert_sequential(
        list(zip(pixel.tolist(), codes.tolist(), oid.tolist(), front.tolist())),
        config,
        TILE_PIXELS,
    )
    vectorized = build_zeb(pixel, codes, oid, front, config, TILE_PIXELS)
    assert_zeb_equal(reference, vectorized)


def test_spare_pool_exhaustion_matches():
    # Fewer spares than overflow attempts: the first arrivals win them.
    config = RBCDConfig(list_length=2, spare_entries_per_tile=3)
    pixel = np.zeros(10, dtype=np.int64)
    codes = np.arange(10, 0, -1, dtype=np.int64)  # strictly nearer each time
    oid = np.arange(10, dtype=np.int64) % 4
    front = np.ones(10, dtype=bool)
    reference = insert_sequential(
        list(zip(pixel.tolist(), codes.tolist(), oid.tolist(), front.tolist())),
        config,
        TILE_PIXELS,
    )
    vectorized = build_zeb(pixel, codes, oid, front, config, TILE_PIXELS)
    assert_zeb_equal(reference, vectorized)
    assert reference.spare_allocations == 3
    assert reference.overflow_events == 10 - 2 - 3


# ---------------------------------------------------------------------------
# Tile loop
# ---------------------------------------------------------------------------

SCREEN = (64, 32)  # 4 x 2 tiles of 16 x 16


def random_frame_soup(seed: int, n: int = 1200) -> FragmentSoup:
    """A seeded multi-tile fragment soup (global coordinates)."""
    rng = np.random.default_rng(seed)
    width, height = SCREEN
    x = rng.integers(0, width, size=n).astype(np.int32)
    y = rng.integers(0, height, size=n).astype(np.int32)
    z = rng.random(n)
    oid = rng.integers(-1, 6, size=n).astype(np.int64)  # -1: non-collisionable
    front = rng.random(n) < 0.5
    zeros = np.zeros(n, dtype=np.int64)
    return FragmentSoup(
        x=x, y=y, z=z, object_id=oid, front=front,
        tagged=np.zeros(n, dtype=bool),
        draw_index=zeros, tri_index=zeros.copy(),
    )


def unit_fingerprint(unit: RBCDUnit) -> dict:
    report = unit.report
    return {
        "insertions": unit.insertions,
        "overflow_events": unit.overflow_events,
        "spare_allocations": unit.spare_allocations,
        "lists_analyzed": unit.lists_analyzed,
        "elements_read": unit.elements_read,
        "stack_overflows": unit.stack_overflows,
        "unmatched_backfaces": unit.unmatched_backfaces,
        "pair_records_written": report.pair_records_written,
        "pairs": report.as_sorted_pairs(),
        "contacts": {
            (p.id_a, p.id_b): [(c.x, c.y, c.z_front, c.z_back) for c in pts]
            for p, pts in report.contacts.items()
        },
    }


def run_serial_reference(config: GPUConfig, soup: FragmentSoup):
    unit = RBCDUnit(config)
    per_tile = {}
    for task in gather_tile_tasks(soup, config):
        result = compute_tile_oracle(
            config, task.tile_index, task.x, task.y, task.z, task.object_id,
            task.front,
        )
        unit.absorb(result)
        per_tile[task.tile_index] = result
    return unit, per_tile


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("soup_seed", [1, 2, 8])
def test_tile_loop_matches_serial_reference(m, soup_seed):
    config = GPUConfig().with_screen(*SCREEN).with_rbcd(list_length=m)
    soup = random_frame_soup(seed=m * 10 + soup_seed)
    serial_unit, per_tile = run_serial_reference(config, soup)

    tasks = gather_tile_tasks(soup, config)
    results = TileExecutor().run(config, tasks)

    # Results arrive in tile-schedule order with bit-identical tiles...
    assert [r.tile_index for r in results] == [t.tile_index for t in tasks]
    for result in results:
        assert_zeb_equal(result.zeb, per_tile[result.tile_index].zeb)
        assert result.insertion_cycles == per_tile[result.tile_index].insertion_cycles
        assert result.overlap_cycles == per_tile[result.tile_index].overlap_cycles

    # ...and absorbing them in order reproduces the serial unit exactly.
    merged_unit = RBCDUnit(config)
    for result in results:
        merged_unit.absorb(result)
    assert unit_fingerprint(merged_unit) == unit_fingerprint(serial_unit)


@pytest.mark.parametrize("spare", [0, 8])
@pytest.mark.parametrize("soup_seed", [2, 8])
def test_spare_pool_matches_serial_reference(spare, soup_seed):
    config = (
        GPUConfig().with_screen(*SCREEN)
        .with_rbcd(list_length=4, spare_entries_per_tile=spare)
    )
    soup = random_frame_soup(seed=100 + spare + soup_seed)
    serial_unit, per_tile = run_serial_reference(config, soup)

    tasks = gather_tile_tasks(soup, config)
    results = TileExecutor().run(config, tasks)

    merged_unit = RBCDUnit(config)
    for result in results:
        assert_zeb_equal(result.zeb, per_tile[result.tile_index].zeb)
        merged_unit.absorb(result)
    assert unit_fingerprint(merged_unit) == unit_fingerprint(serial_unit)


def test_tile_loop_matches_sequential_spec_per_tile():
    # Close the triangle: executor results == insert_sequential per tile.
    config = GPUConfig().with_screen(*SCREEN).with_rbcd(list_length=4)
    soup = random_frame_soup(seed=42)
    tasks = gather_tile_tasks(soup, config)
    results = TileExecutor().run(config, tasks)
    ts = config.tile_size
    for task, result in zip(tasks, results):
        local = (task.y % ts).astype(np.int64) * ts + (task.x % ts).astype(np.int64)
        codes = quantize_depth(task.z, config.rbcd)
        reference = insert_sequential(
            list(zip(local.tolist(), codes.tolist(),
                     task.object_id.tolist(), task.front.tolist())),
            config.rbcd,
            config.tile_pixels,
        )
        assert_zeb_equal(reference, result.zeb)


def test_serial_executor_is_the_reference():
    config = GPUConfig().with_screen(*SCREEN).with_rbcd(list_length=4)
    soup = random_frame_soup(seed=5)
    tasks = gather_tile_tasks(soup, config)
    serial_unit, per_tile = run_serial_reference(config, soup)
    results = TileExecutor().run(config, tasks)
    merged = RBCDUnit(config)
    for result in results:
        merged.absorb(result)
    assert unit_fingerprint(merged) == unit_fingerprint(serial_unit)


def test_gather_tile_tasks_orders_tiles_and_preserves_arrival():
    config = GPUConfig().with_screen(*SCREEN)
    soup = random_frame_soup(seed=9)
    tasks = gather_tile_tasks(soup, config)
    tiles = [t.tile_index for t in tasks]
    assert tiles == sorted(tiles)
    assert len(set(tiles)) == len(tiles)
    # Fragment counts cover exactly the collisionable fragments.
    assert sum(t.fragment_count for t in tasks) == int((soup.object_id >= 0).sum())
    # Within a tile, fragments keep frame arrival order.
    tile_of = soup.tile_index(config)
    for task in tasks:
        idx = np.flatnonzero((tile_of == task.tile_index) & (soup.object_id >= 0))
        np.testing.assert_array_equal(task.x, soup.x[idx])
        np.testing.assert_array_equal(task.y, soup.y[idx])


def test_empty_soup_yields_no_tasks():
    config = GPUConfig().with_screen(*SCREEN)
    assert len(gather_tile_tasks(FragmentSoup.empty(), config)) == 0


# ---------------------------------------------------------------------------
# Kernel-backend matrix
# ---------------------------------------------------------------------------

from repro.gpu import kernels as _kernels  # noqa: E402


def _backend_matrix() -> list[str]:
    """Every registered kernel backend."""
    return list(_kernels.backend_names())


@pytest.mark.parametrize("backend", _backend_matrix())
@pytest.mark.parametrize("soup_seed", [1, 2, 8])
def test_backend_matrix_matches_reference(backend, soup_seed):
    """sequential spec ≡ every kernel backend through the tile loop.

    The serial reference always runs the ``reference`` backend; the
    tile loop uses the backend under test, over several seeded soups.
    """
    soup = random_frame_soup(seed=30 + soup_seed)
    serial_config = (
        GPUConfig().with_screen(*SCREEN)
        .with_rbcd(list_length=4)
        .with_kernel_backend("reference")
    )
    serial_unit, _ = run_serial_reference(serial_config, soup)

    config = serial_config.with_kernel_backend(backend)
    tasks = gather_tile_tasks(soup, config)
    merged = RBCDUnit(config)
    for result in TileExecutor().run(config, tasks):
        merged.absorb(result)
    assert unit_fingerprint(merged) == unit_fingerprint(serial_unit)


@pytest.mark.parametrize("backend", _backend_matrix())
def test_backend_matrix_with_spare_pool(backend):
    """The backend matrix again with the spare pool on."""
    soup = random_frame_soup(seed=77)
    serial_config = (
        GPUConfig().with_screen(*SCREEN)
        .with_rbcd(list_length=4, spare_entries_per_tile=6)
        .with_kernel_backend("reference")
    )
    serial_unit, _ = run_serial_reference(serial_config, soup)

    config = serial_config.with_kernel_backend(backend)
    tasks = gather_tile_tasks(soup, config)
    merged = RBCDUnit(config)
    for result in TileExecutor().run(config, tasks):
        merged.absorb(result)
    assert unit_fingerprint(merged) == unit_fingerprint(serial_unit)
