"""Differential harness: sequential spec ≡ vectorized ≡ tile loop.

Randomized (seeded) fragment soups are pushed through the three
implementations of the ZEB insertion path —

* :func:`insert_sequential`, the hardware-literal executable spec
  (``tests/rbcd/zeb_oracle.py``);
* :func:`build_zeb`, the vectorized builder;
* the frame pass (:func:`gather_tile_tasks` → :class:`TileExecutor` →
  :func:`compute_tile` → one absorb), against the per-tile oracle in
  ``tests/rbcd/tile_oracle.py`` (each tile computed alone, then
  absorbed tile by tile);

— and every observable is asserted bit-identical: z-codes, object ids,
facing bits, per-list counts, and the overflow/spare counters, across
M ∈ {2, 4, 8}, spare-pool on/off, and several seeded soups.  The kernel
matrix at the end runs the frame pass on the scalar oracles too (the
``reference_kernels`` fixture).
"""

import numpy as np
import pytest

from repro.gpu.config import GPUConfig, RBCDConfig
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.raster import FragmentSoup
from repro.rbcd.element import quantize_depth
from repro.rbcd.unit import RBCDUnit
from repro.rbcd.zeb import build_zeb
from tests.conftest import KERNEL_SETS, use_kernels
from tests.rbcd.tile_oracle import (
    absorb_oracle,
    absorbed,
    compute_tile_oracle,
    mismatches,
    tile_slices,
)
from tests.rbcd.zeb_oracle import insert_sequential

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
    """A seeded multi-tile fragment soup (global coordinates).

    Half the fragments are loose: any pixel, depth, object and facing.
    The other half come in front/back pairs of one object at pixels the
    objects share, the front nearer, so depth intervals of different
    objects overlap there and the Z-Overlap test emits pair records.
    """
    rng = np.random.default_rng(seed)
    width, height = SCREEN
    pairs = n // 4
    loose = n - 2 * pairs
    shared = rng.integers(0, width * height, size=pairs // 4)
    pixel = shared[rng.integers(0, shared.size, size=pairs)]
    z_front = 0.8 * rng.random(pairs)
    z_back = z_front + 1e-3 + 0.2 * rng.random(pairs)
    pair_oid = rng.integers(0, 6, size=pairs)
    px, py = pixel % width, pixel // width
    x = np.concatenate((rng.integers(0, width, size=loose), px, px))
    y = np.concatenate((rng.integers(0, height, size=loose), py, py))
    z = np.concatenate((rng.random(loose), z_front, z_back))
    # -1: non-collisionable.
    oid = np.concatenate((rng.integers(-1, 6, size=loose), pair_oid, pair_oid))
    front = np.concatenate((rng.random(loose) < 0.5, np.repeat([True, False], pairs)))
    order = rng.permutation(n)
    zeros = np.zeros(n, dtype=np.int64)
    return FragmentSoup(
        x=x[order].astype(np.int32), y=y[order].astype(np.int32), z=z[order],
        object_id=oid[order].astype(np.int64), front=front[order],
        tagged=np.zeros(n, dtype=bool),
        draw_index=zeros, tri_index=zeros.copy(),
    )


def run_serial_reference(config: GPUConfig, soup: FragmentSoup):
    """The per-tile oracle: each tile computed alone, then absorbed
    tile by tile."""
    per_tile = {}
    for task in gather_tile_tasks(soup, config):
        per_tile[task.tile_index] = compute_tile_oracle(
            config, task.tile_index, task.x, task.y, task.z, task.object_id,
            task.front,
        )
    return absorb_oracle(config, list(per_tile.values())), per_tile


def run_frame_pass(config: GPUConfig, tasks):
    """One compute pass, absorbed once: the unit and its result."""
    unit = RBCDUnit(config)
    unit.absorb(TileExecutor().run(config, tasks))
    return unit


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("soup_seed", [1, 2, 8])
def test_tile_loop_matches_serial_reference(m, soup_seed):
    config = GPUConfig().with_screen(*SCREEN).with_rbcd(list_length=m)
    soup = random_frame_soup(seed=m * 10 + soup_seed)
    serial, per_tile = run_serial_reference(config, soup)
    # A pair needs three elements in one list (a front face, an element
    # inside its interval, the back face): two-element lists emit none.
    assert (serial.pair_records_written > 0) == (m > 2)

    tasks = gather_tile_tasks(soup, config)
    merged_unit = run_frame_pass(config, tasks)
    tiles = tile_slices(config, merged_unit.tiles)

    # Tiles come in tile-schedule order with bit-identical slices...
    assert [r.tile_index for r in tiles] == [t.tile_index for t in tasks]
    for result in tiles:
        assert_zeb_equal(result.zeb, per_tile[result.tile_index].zeb)
        assert result.insertion_cycles == per_tile[result.tile_index].insertion_cycles
        assert result.overlap_cycles == per_tile[result.tile_index].overlap_cycles

    # ...and the one absorb reproduces the serial unit exactly.
    assert mismatches(absorbed(merged_unit), serial) == []


@pytest.mark.parametrize("spare", [0, 8])
@pytest.mark.parametrize("soup_seed", [2, 8])
def test_spare_pool_matches_serial_reference(spare, soup_seed):
    config = (
        GPUConfig().with_screen(*SCREEN)
        .with_rbcd(list_length=4, spare_entries_per_tile=spare)
    )
    soup = random_frame_soup(seed=100 + spare + soup_seed)
    serial, per_tile = run_serial_reference(config, soup)
    assert serial.pair_records_written > 0

    merged_unit = run_frame_pass(config, gather_tile_tasks(soup, config))
    for result in tile_slices(config, merged_unit.tiles):
        assert_zeb_equal(result.zeb, per_tile[result.tile_index].zeb)
    assert mismatches(absorbed(merged_unit), serial) == []


def test_tile_loop_matches_sequential_spec_per_tile():
    # Close the triangle: executor results == insert_sequential per tile.
    config = GPUConfig().with_screen(*SCREEN).with_rbcd(list_length=4)
    soup = random_frame_soup(seed=42)
    tasks = gather_tile_tasks(soup, config)
    results = tile_slices(config, TileExecutor().run(config, tasks))
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
    serial, _ = run_serial_reference(config, soup)
    assert mismatches(absorbed(run_frame_pass(config, tasks)), serial) == []


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
# Kernel matrix: the tile loop on each kernel set vs the scalar oracles
# ---------------------------------------------------------------------------


def _tile_loop_matches_serial_reference(request, backend, config, soup):
    """The tile loop on the kernel set ``backend`` reproduces the serial
    reference computed on the scalar oracles."""
    use_kernels(request, backend)
    merged = run_frame_pass(config, gather_tile_tasks(soup, config))
    use_kernels(request, "reference")
    serial, _ = run_serial_reference(config, soup)
    assert mismatches(absorbed(merged), serial) == []


@pytest.mark.parametrize("backend", KERNEL_SETS)
@pytest.mark.parametrize("soup_seed", [1, 2, 8])
def test_backend_matrix_matches_reference(backend, soup_seed, request):
    """sequential spec ≡ each kernel set through the tile loop, over
    several seeded soups."""
    config = GPUConfig().with_screen(*SCREEN).with_rbcd(list_length=4)
    _tile_loop_matches_serial_reference(
        request, backend, config, random_frame_soup(seed=30 + soup_seed)
    )


@pytest.mark.parametrize("backend", KERNEL_SETS)
def test_backend_matrix_with_spare_pool(backend, request):
    """The kernel matrix again with the spare pool on."""
    config = (
        GPUConfig().with_screen(*SCREEN)
        .with_rbcd(list_length=4, spare_entries_per_tile=6)
    )
    _tile_loop_matches_serial_reference(
        request, backend, config, random_frame_soup(seed=77)
    )
