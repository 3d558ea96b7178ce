"""Kernel conformance: the vectorized kernels equal the scalar oracles.

The pipeline's kernels — :func:`repro.gpu.kernels.rasterize_triangles`,
:func:`repro.gpu.kernels.earlyz_test`, :func:`repro.rbcd.zeb.build_zeb`
and :func:`repro.rbcd.overlap.analyze_tile` — must compute the *same
function* as the hardware-literal scalar walkers kept as test oracles
(``tests/gpu/kernel_oracle.py``, ``tests/rbcd/zeb_oracle.py``,
``tests/rbcd/zoverlap_oracle.py``): not approximately, byte for byte.
Each test runs both kernel sets (the oracles must also reproduce
themselves) over golden fixtures and hypothesis-generated fragment
streams, and asserts full observable equality:

* rasterizer fragments (coordinates, depth *bit patterns*, triangle
  provenance, emission order);
* early-Z pass masks and each pixel's visible fragment;
* ZEB contents and counters after insertion;
* Z-Overlap results — pairs, evidence arrays, and every counter;
* whole-frame fingerprints through the real pipeline, with the oracles
  swapped in by the ``reference_kernels`` fixture.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu import kernels
from repro.gpu.config import RBCDConfig
from repro.gpu.pipeline import GPU
from repro.rbcd.element import quantize_depth
from repro.rbcd.overlap import analyze_tile
from repro.rbcd.zeb import build_zeb
from tests.conftest import KERNEL_SETS, sphere_pair_frame, two_boxes_frame, use_kernels
from tests.gpu import kernel_oracle
from tests.gpu.test_parallel import frame_fingerprint
from tests.rbcd import zeb_oracle, zoverlap_oracle
from tests.rbcd.test_differential import assert_zeb_equal

TILE_PIXELS = 256

REFERENCE = SimpleNamespace(
    name="reference",
    rasterize_triangles=kernel_oracle.rasterize_triangles,
    earlyz_test=kernel_oracle.earlyz_test,
    zeb_insert=zeb_oracle.zeb_insert,
    zoverlap_traverse=zoverlap_oracle.traverse_lists_sequential,
)
VECTORIZED = SimpleNamespace(
    name="vectorized",
    rasterize_triangles=kernels.rasterize_triangles,
    earlyz_test=kernels.earlyz_test,
    zeb_insert=build_zeb,
    zoverlap_traverse=analyze_tile,
)
# Both kernel sets under test, the oracles included (they must match
# themselves).
BACKENDS = [REFERENCE, VECTORIZED]
BACKEND_IDS = [b.name for b in BACKENDS]


def assert_fragments_equal(a, b):
    """Bit-identical rasterizer output, depth compared as raw bits."""
    for i in range(4):
        assert a[i].dtype == b[i].dtype
    np.testing.assert_array_equal(a[0], b[0])  # px
    np.testing.assert_array_equal(a[1], b[1])  # py
    np.testing.assert_array_equal(
        a[2].view(np.int64), b[2].view(np.int64)
    )  # pz, exact bit pattern
    np.testing.assert_array_equal(a[3], b[3])  # tri


def assert_earlyz_equal(a, b):
    """Equal early-Z pass masks and visible-fragment indices."""
    for ours, theirs in zip(a, b):
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)


def assert_overlap_equal(a, b):
    for name in (
        "pair_row", "pair_id_a", "pair_id_b", "pair_z_front",
        "pair_z_back", "pair_case", "pair_stack_depth", "list_tallies",
    ):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    for name in (
        "elements_read", "pair_records", "stack_overflows",
        "unmatched_backfaces", "disjoint_closures", "self_pairs_filtered",
    ):
        assert getattr(a, name) == getattr(b, name), name


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------


def random_triangles(seed: int, n: int):
    """Triangle batch with degenerates, shared edges and off-screen
    geometry mixed in."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-8.0, 72.0, size=(n, 3, 2))
    z = rng.uniform(-0.2, 1.2, size=(n, 3))
    if n >= 4:
        xy[1] = xy[0][[0, 2, 1]]          # shared edge, opposite winding
        xy[2, 1] = xy[2, 0]               # degenerate (zero area)
        z[3] = 0.5                        # constant-depth triangle
    return xy, z


def random_tile_stream(seed: int, n: int = 500, pixels: int = 16):
    """Fragment stream for one tile, hot pixels and heavy z ties."""
    rng = np.random.default_rng(seed)
    pixel = rng.integers(0, pixels, size=n).astype(np.int64)
    codes = rng.integers(0, 40, size=n).astype(np.int64)
    oid = rng.integers(0, 7, size=n).astype(np.int64)
    front = rng.random(n) < 0.5
    return pixel, codes, oid, front


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestKernelConformance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rasterize_matches_reference(self, backend, seed):
        xy, z = random_triangles(seed, 24)
        assert_fragments_equal(
            backend.rasterize_triangles(xy, z, 64, 64),
            REFERENCE.rasterize_triangles(xy, z, 64, 64),
        )

    def test_rasterize_empty_and_offscreen(self, backend):
        xy = np.empty((0, 3, 2)); z = np.empty((0, 3))
        assert_fragments_equal(
            backend.rasterize_triangles(xy, z, 32, 32),
            REFERENCE.rasterize_triangles(xy, z, 32, 32),
        )
        xy, z = random_triangles(9, 8)
        xy = xy + 500.0  # fully off-screen
        assert_fragments_equal(
            backend.rasterize_triangles(xy, z, 32, 32),
            REFERENCE.rasterize_triangles(xy, z, 32, 32),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_earlyz_matches_reference(self, backend, seed):
        rng = np.random.default_rng(seed)
        n = 800
        pixel = rng.integers(0, 40, size=n).astype(np.int64)
        z = rng.choice([0.25, 0.5, 0.5, 0.75, 1.0], size=n)  # heavy ties
        assert_earlyz_equal(
            backend.earlyz_test(pixel, z), REFERENCE.earlyz_test(pixel, z)
        )

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("spare", [0, 8])
    def test_zeb_insert_matches_reference(self, backend, m, spare):
        config = RBCDConfig(list_length=m, spare_entries_per_tile=spare)
        pixel, codes, oid, front = random_tile_stream(m * 10 + spare)
        assert_zeb_equal(
            backend.zeb_insert(pixel, codes, oid, front, config, TILE_PIXELS),
            REFERENCE.zeb_insert(pixel, codes, oid, front, config, TILE_PIXELS),
        )

    @pytest.mark.parametrize("first_tile", [0, 1 << 48])
    def test_zeb_insert_keeps_each_tile_apart(self, backend, first_tile):
        # Three tiles' streams interleaved, one spare entry per tile.
        # Keys near 2**56 are too wide to pack with a depth code, so
        # the vectorized builder sorts them with its lexsort fallback.
        config = RBCDConfig(list_length=2, spare_entries_per_tile=1)
        pixel, codes, oid, front = random_tile_stream(5, n=600)
        keys = (first_tile + np.arange(600) % 3) * TILE_PIXELS + pixel
        ours = backend.zeb_insert(keys, codes, oid, front, config, TILE_PIXELS)
        theirs = REFERENCE.zeb_insert(
            keys, codes, oid, front, config, TILE_PIXELS
        )
        assert_zeb_equal(ours, theirs)
        assert theirs.spare_allocations == 3
        assert_overlap_equal(
            backend.zoverlap_traverse(ours, config),
            REFERENCE.zoverlap_traverse(theirs, config),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zoverlap_matches_reference(self, backend, seed):
        config = RBCDConfig(list_length=8)
        pixel, codes, oid, front = random_tile_stream(seed, n=700)
        zeb = REFERENCE.zeb_insert(
            pixel, codes, oid, front, config, TILE_PIXELS
        )
        assert_overlap_equal(
            backend.zoverlap_traverse(zeb, config),
            REFERENCE.zoverlap_traverse(zeb, config),
        )

    def test_zoverlap_overflow_and_unmatched_counters_match(self, backend):
        # Shallow FF-Stack plus alternating facing: stack overflows and
        # unmatched back faces both fire, and must match exactly.
        config = RBCDConfig(list_length=16, ff_stack_entries=2)
        rng = np.random.default_rng(3)
        n = 400
        pixel = rng.integers(0, 4, size=n).astype(np.int64)
        codes = rng.integers(0, 25, size=n).astype(np.int64)
        oid = rng.integers(0, 8, size=n).astype(np.int64)
        front = rng.random(n) < 0.7
        zeb = REFERENCE.zeb_insert(pixel, codes, oid, front, config, TILE_PIXELS)
        ours = backend.zoverlap_traverse(zeb, config)
        theirs = REFERENCE.zoverlap_traverse(zeb, config)
        assert_overlap_equal(ours, theirs)
        assert theirs.stack_overflows > 0
        assert theirs.unmatched_backfaces > 0


# ---------------------------------------------------------------------------
# Hypothesis streams
# ---------------------------------------------------------------------------

fragment_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),    # pixel
        st.integers(min_value=0, max_value=15),   # z code
        st.integers(min_value=0, max_value=4),    # object id
        st.booleans(),                            # front face
    ),
    max_size=100,
)


def _arrays(stream):
    if not stream:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), np.empty(0, dtype=bool)
    pixel, codes, oid, front = (np.array(c) for c in zip(*stream))
    return (
        pixel.astype(np.int64), codes.astype(np.int64),
        oid.astype(np.int64), front.astype(bool),
    )


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@settings(max_examples=40, deadline=None)
@given(stream=fragment_stream, m=st.sampled_from([2, 4]), spare=st.sampled_from([0, 3]))
def test_zeb_and_overlap_conform_on_generated_streams(backend, stream, m, spare):
    config = RBCDConfig(list_length=m, spare_entries_per_tile=spare)
    pixel, codes, oid, front = _arrays(stream)
    ours = backend.zeb_insert(pixel, codes, oid, front, config, 64)
    theirs = REFERENCE.zeb_insert(pixel, codes, oid, front, config, 64)
    assert_zeb_equal(ours, theirs)
    assert_overlap_equal(
        backend.zoverlap_traverse(ours, config),
        REFERENCE.zoverlap_traverse(theirs, config),
    )


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@settings(max_examples=40, deadline=None)
@given(
    pixels=st.lists(st.integers(min_value=0, max_value=7), max_size=80),
    data=st.data(),
)
def test_earlyz_conforms_on_generated_streams(backend, pixels, data):
    n = len(pixels)
    depths = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]),
            min_size=n, max_size=n,
        )
    )
    pixel = np.array(pixels, dtype=np.int64)
    z = np.array(depths, dtype=np.float64)
    assert_earlyz_equal(
        backend.earlyz_test(pixel, z), REFERENCE.earlyz_test(pixel, z)
    )


# ---------------------------------------------------------------------------
# Rasterizer: adversarial triangles against the span candidate generator
# ---------------------------------------------------------------------------

RASTER_W, RASTER_H = 24, 16

# Free coordinates, and the pixel lattice: integers are pixel edges,
# half-integers pixel centres.
near_coord = st.floats(-6.0, 30.0)
lattice_coord = st.integers(-12, 60).map(lambda k: k / 2.0)
coord = near_coord | lattice_coord
wide_coord = st.floats(-48.0, 72.0)  # screen-sized, partly off-screen


@st.composite
def raster_triangle(
    draw, coord=coord, lattice_coord=lattice_coord, wide_coord=wide_coord,
    kinds=("generic", "lattice", "wide", "sliver", "near_horizontal",
           "sub_pixel", "zero_area"),
):
    """One triangle of an adversarial kind, in a random vertex order."""

    def point(c=coord):
        return [draw(c), draw(c)]

    kind = draw(st.sampled_from(kinds))
    if kind == "generic":
        tri = [point(), point(), point()]
    elif kind == "lattice":  # pixel centres land exactly on edges
        tri = [point(lattice_coord), point(lattice_coord), point(lattice_coord)]
    elif kind == "wide":
        tri = [point(wide_coord), point(wide_coord), point(wide_coord)]
    elif kind == "sliver":
        a, b = point(), point()
        t = draw(st.floats(0.0, 1.0))
        c = [a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]
        c[draw(st.integers(0, 1))] += draw(st.floats(1e-9, 0.05))
        tri = [a, b, c]
    elif kind == "near_horizontal":
        a = point()
        dy = draw(st.floats(1e-12, 1e-6)) * draw(st.sampled_from([-1.0, 1.0]))
        tri = [a, [draw(coord), a[1] + dy], point()]
    elif kind == "needle":  # long and at most a pixel or so thick
        a, b = point(), point()
        tri = [a, b, [b[0] + draw(st.floats(-1.5, 1.5)),
                      b[1] + draw(st.floats(-1.5, 1.5))]]
    elif kind == "sub_pixel":
        bx, by = point(lattice_coord)
        offset = st.floats(-0.75, 0.75)
        tri = [[bx + draw(offset), by + draw(offset)] for _ in range(3)]
    else:  # zero area: exactly collinear lattice points
        a, b = point(lattice_coord), point(lattice_coord)
        k = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
        tri = [a, b, [a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1])]]
    rotate = draw(st.integers(0, 2))
    tri = tri[rotate:] + tri[:rotate]
    if draw(st.booleans()):
        tri = tri[::-1]  # the other winding
    depths = [draw(st.floats(-0.5, 1.5)) for _ in range(3)]
    return tri, depths


# Triangles with a pixel centre on a top-left edge whose rounded
# crossing lands just past that centre: a span not widened past its
# computed crossing misses a fragment of each.
ON_EDGE_CENTRES = [
    [[0.0, 19.0], [-1.0, 10.0], [24.0, -1.0]],
    [[1.55, 9.2], [21.0, 17.75], [25.25, 29.0]],
    [[-2.875, 20.625], [17.25, 2.25], [22.0, 23.625]],
]


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(raster_triangle(), min_size=1, max_size=8))
@example(batch=[(tri, [0.2, 0.5, 0.8]) for tri in ON_EDGE_CENTRES])
def test_vectorized_rasterizer_matches_reference_on_adversarial_triangles(batch):
    xy = np.array([tri for tri, _ in batch], dtype=np.float64)
    z = np.array([depths for _, depths in batch], dtype=np.float64)
    assert_fragments_equal(
        kernels.rasterize_triangles(xy, z, RASTER_W, RASTER_H),
        REFERENCE.rasterize_triangles(xy, z, RASTER_W, RASTER_H),
    )


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_span_narrowed_past_exact_crossing_fails_conformance(monkeypatch, side):
    """The span suite can fail: narrowing either end of every exact
    span (the widened span less one pixel per side) by one more pixel
    drops fragments the reference emits."""
    row_spans = kernels._row_spans

    def narrowed(*args):
        lo, hi = row_spans(*args)
        return (lo + 2, hi) if side == "lo" else (lo, hi - 2)

    monkeypatch.setattr(kernels, "_row_spans", narrowed)
    for seed in (0, 1, 2):
        xy, z = random_triangles(seed, 24)
        with pytest.raises(AssertionError):
            assert_fragments_equal(
                kernels.rasterize_triangles(xy, z, 64, 64),
                REFERENCE.rasterize_triangles(xy, z, 64, 64),
            )


@pytest.mark.parametrize("tri", ON_EDGE_CENTRES)
def test_span_not_widened_past_its_crossing_fails_conformance(monkeypatch, tri):
    """With no widening (eps = 0) each on-edge-centre triangle loses the
    fragment whose centre its rounded crossing lands just past."""
    monkeypatch.setattr(kernels, "_SPAN_EPS", 0.0)
    xy = np.array([tri], dtype=np.float64)
    z = np.array([[0.2, 0.5, 0.8]])
    with pytest.raises(AssertionError):
        assert_fragments_equal(
            kernels.rasterize_triangles(xy, z, RASTER_W, RASTER_H),
            REFERENCE.rasterize_triangles(xy, z, RASTER_W, RASTER_H),
        )


def test_crossed_over_span_beyond_a_box_edge_stays_empty():
    """A wedge whose apex lies past the screen's right edge: on rows
    where it lies wholly past the box (clamped to the screen), and on
    the row past the apex where its two edges' crossings cross over,
    the span stays empty instead of shrinking to the box's last
    column."""
    xy = np.array([[[60.0, 10.0], [100.0, 20.0], [60.0, 12.0]]])
    vx, vy = xy[:, :, 0], xy[:, :, 1]
    edges = kernels._edge_setup(vx, vy, np.array([1.0]))  # area2 = 80
    row_y = np.arange(10, 21)  # the bounding box's rows; 20 is past the apex
    tri = np.zeros(row_y.shape[0], dtype=np.int64)
    row_edges = [(vx[tri, i], row_y + 0.5 - vy[tri, i]) for i in range(3)]
    x0, x1 = np.array([60]), np.array([63])  # the box, clamped to 64 columns
    lo, hi = kernels._row_spans(
        edges, row_edges, np.array([True]), tri, x0, x1
    )
    # From row 13 on the wedge lies past column 63.
    np.testing.assert_array_equal(lo > hi, row_y >= 13)
    assert (lo >= x0[0]).all() and (hi <= x1[0]).all()


# Coordinates on both sides of the span-safe bound, and pixel-scale
# offsets from it, so that batches mix tame and untame triangles whose
# edges still cross the screen.
_M = kernels._SPAN_MAX_COORD
straddle_coord = (
    st.sampled_from([-_M, _M]).flatmap(
        lambda m: st.floats(-64.0, 64.0).map(lambda d: m + d)
    )
    | st.floats(-2.0 * _M, 2.0 * _M)
    | st.floats(-8.0, 72.0)
)


@settings(max_examples=200, deadline=None)
@given(
    batch=st.lists(
        st.tuples(
            st.lists(
                st.tuples(straddle_coord, straddle_coord), min_size=3,
                max_size=3,
            ),
            st.lists(st.floats(-0.5, 1.5), min_size=3, max_size=3),
        ),
        min_size=1, max_size=6,
    )
)
def test_rasterizer_matches_reference_across_span_max_coord(batch):
    xy = np.array([tri for tri, _ in batch], dtype=np.float64)
    z = np.array([depths for _, depths in batch], dtype=np.float64)
    assert_fragments_equal(
        kernels.rasterize_triangles(xy, z, 64, 64),
        REFERENCE.rasterize_triangles(xy, z, 64, 64),
    )


def test_rasterize_chunked_spans_match_reference(monkeypatch):
    """Tiny chunk bounds split triangles across row chunks and rows
    across candidate chunks (a 64-wide row alone exceeds the bound)."""
    monkeypatch.setattr(kernels, "_MAX_ROWS", 7)
    monkeypatch.setattr(kernels, "_MAX_CANDIDATES", 50)
    for seed in (0, 1, 2):
        xy, z = random_triangles(seed, 24)
        assert_fragments_equal(
            kernels.rasterize_triangles(xy, z, 64, 64),
            REFERENCE.rasterize_triangles(xy, z, 64, 64),
        )


# A screen wide enough for long rows, so rows take the end-column run
# rule and, where an end is uncovered, its candidate-test fallback.
WIDE_W, WIDE_H = 96, 64
wide_screen_triangle = raster_triangle(
    coord=st.floats(-12.0, 108.0),
    lattice_coord=st.integers(-24, 216).map(lambda k: k / 2.0),
    wide_coord=st.floats(-150.0, 250.0),
    kinds=("generic", "lattice", "wide", "sliver", "near_horizontal",
           "needle"),
)


def _count_end_runs(monkeypatch):
    """Hook the run rule; returns the running ``{runs, fallbacks}``."""
    seen = {"runs": 0, "fallbacks": 0}
    end_runs = kernels._end_runs

    def counting(ends, lo, hi):
        runs, first, last = end_runs(ends, lo, hi)
        seen["runs"] += runs.shape[0]
        seen["fallbacks"] += ends.shape[1] - runs.shape[0]
        return runs, first, last

    monkeypatch.setattr(kernels, "_end_runs", counting)
    return seen


def test_vectorized_rasterizer_matches_reference_at_a_wider_screen(monkeypatch):
    seen = _count_end_runs(monkeypatch)

    @settings(max_examples=200, deadline=None)
    @given(batch=st.lists(wide_screen_triangle, min_size=1, max_size=6))
    # Wide rows, and two rows past an exactly horizontal edge.
    @example(batch=[([[2.0, 40.25], [60.0, 40.25], [35.9, 3.0]], [0.2, 0.5, 0.8])])
    def check(batch):
        xy = np.array([tri for tri, _ in batch], dtype=np.float64)
        z = np.array([depths for _, depths in batch], dtype=np.float64)
        assert_fragments_equal(
            kernels.rasterize_triangles(xy, z, WIDE_W, WIDE_H),
            REFERENCE.rasterize_triangles(xy, z, WIDE_W, WIDE_H),
        )

    check()
    # Both the run path and its fallback ran.
    assert seen["runs"] > 0
    assert seen["fallbacks"] > 0


def horizontal_edge_triangles(seed: int, n: int = 12):
    """Triangles with one exactly horizontal edge off the pixel grid.

    The bounding box reaches a row past that edge whose scanline lies
    outside the triangle, while the other two edges' lines still span
    most of the box there: a wide span with no covered pixel, so
    neither end column is covered and the row falls back to the
    candidate test.
    """
    rng = np.random.default_rng(seed)
    y = rng.uniform(8.0, 56.0, size=n)
    x0 = rng.uniform(-4.0, 20.0, size=n)
    x1 = x0 + rng.uniform(16.0, 44.0, size=n)
    apex = np.stack(
        [rng.uniform(0.0, 64.0, size=n),
         y + rng.choice([-1.0, 1.0], size=n) * rng.uniform(6.0, 30.0, size=n)],
        axis=1,
    )
    xy = np.stack(
        [np.stack([x0, y], axis=1), np.stack([x1, y], axis=1), apex], axis=1
    )
    return xy, rng.uniform(0.0, 1.0, size=(n, 3))


def test_rows_past_a_horizontal_edge_match_reference(monkeypatch):
    seen = _count_end_runs(monkeypatch)
    for seed in (0, 1, 2):
        xy, z = horizontal_edge_triangles(seed)
        assert_fragments_equal(
            kernels.rasterize_triangles(xy, z, 64, 64),
            REFERENCE.rasterize_triangles(xy, z, 64, 64),
        )
    assert seen["fallbacks"] > 0


def _assert_every_fixture_fails_conformance(fixture):
    for seed in (0, 1, 2):
        xy, z = fixture(seed)
        with pytest.raises(AssertionError):
            assert_fragments_equal(
                kernels.rasterize_triangles(xy, z, 64, 64),
                REFERENCE.rasterize_triangles(xy, z, 64, 64),
            )


def test_run_accepted_with_only_its_left_end_covered_fails_conformance(
    monkeypatch,
):
    """A run taken without checking its right end column emits pixels
    the reference leaves out."""
    end_runs = kernels._end_runs

    def left_only(ends, lo, hi):
        return end_runs(np.stack((ends[0], ends[0])), lo, hi)

    monkeypatch.setattr(kernels, "_end_runs", left_only)
    _assert_every_fixture_fails_conformance(horizontal_edge_triangles)


@pytest.mark.parametrize("side", ["first", "last"])
def test_run_narrowed_by_one_pixel_fails_conformance(monkeypatch, side):
    end_runs = kernels._end_runs

    def narrowed(ends, lo, hi):
        runs, first, last = end_runs(ends, lo, hi)
        if side == "first":
            return runs, first + 1, last
        return runs, first, last - 1

    monkeypatch.setattr(kernels, "_end_runs", narrowed)
    _assert_every_fixture_fails_conformance(
        lambda seed: random_triangles(seed, 24)
    )


def test_earlyz_scan_without_its_segment_guard_fails_conformance(monkeypatch):
    """Without the same-pixel guard the doubling scan carries minima
    across pixel segments, so fragments fail against other pixels'
    depths."""

    def unguarded(values, keys):
        run = values.copy()
        d = 1
        while d < run.shape[0]:
            np.minimum(run[d:], run[:-d], out=run[d:])
            d *= 2
        return run

    monkeypatch.setattr(kernels, "_segmented_prefix_min", unguarded)
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        pixel = rng.integers(0, 40, size=800).astype(np.int64)
        z = rng.choice([0.25, 0.5, 0.5, 0.75, 1.0], size=800)
        with pytest.raises(AssertionError):
            assert_earlyz_equal(
                kernels.earlyz_test(pixel, z),
                REFERENCE.earlyz_test(pixel, z),
            )


@pytest.mark.parametrize("scale", [1e6, 1e12, 1e15, 1e17])
def test_rasterize_huge_coordinates_match_reference(scale):
    """Edges between far off-screen vertices still cross the screen
    exactly, even where their crossing arithmetic loses whole pixels."""
    rng = np.random.default_rng(int(np.log10(scale)))
    far = rng.uniform(-scale, scale, size=(16, 2))
    near = rng.uniform(0.0, 64.0, size=(16, 2))
    # The far vertex mirrored through the on-screen one: edge 0-1 runs
    # from far off-screen, past the screen, to far off-screen.
    mirrored = 2.0 * near - far + rng.uniform(-50.0, 50.0, size=(16, 2))
    xy = np.stack([far, mirrored, near], axis=1)
    z = rng.uniform(0.0, 1.0, size=(16, 3))
    assert_fragments_equal(
        kernels.rasterize_triangles(xy, z, 64, 64),
        REFERENCE.rasterize_triangles(xy, z, 64, 64),
    )


# ---------------------------------------------------------------------------
# Whole-frame conformance through the pipeline
# ---------------------------------------------------------------------------


def _assert_frames_match_oracles(request, name, config):
    """Frames rendered on the kernel set ``name`` fingerprint the same
    as on the scalar oracles.  The coincident boxes tie in depth at
    every pixel they share, so early-Z's strict LESS decides them."""
    frames = [
        sphere_pair_frame(config, 0.6),
        sphere_pair_frame(config, 1.4),
        two_boxes_frame(config, 0.0),
    ]

    def fingerprints():
        gpu = GPU(config)
        return [frame_fingerprint(gpu.render_frame(f)) for f in frames]

    use_kernels(request, name)
    got = fingerprints()
    use_kernels(request, "reference")
    assert got == fingerprints()


@pytest.mark.parametrize("name", KERNEL_SETS)
def test_frame_fingerprints_identical_across_backends(name, tiny_config, request):
    _assert_frames_match_oracles(request, name, tiny_config)


def _earlyz_less_or_equal(pixel, z):
    """The scalar early-Z with ``<=`` in place of ``<``: a later
    fragment at an equal depth passes too."""
    passed = np.zeros(pixel.shape[0], dtype=bool)
    z_buffer: dict[int, float] = {}
    visible: dict[int, int] = {}
    for k, (p, depth) in enumerate(zip(pixel.tolist(), z.tolist())):
        if depth <= z_buffer.get(p, 1.0):
            passed[k] = True
            z_buffer[p] = depth
            visible[p] = k
    return passed, np.array([visible[p] for p in sorted(visible)], dtype=np.int64)


def test_earlyz_oracle_with_less_or_equal_fails_pipeline_conformance(
    monkeypatch, tiny_config, request
):
    """The fixture really puts the oracles in the pipeline: an early-Z
    oracle that lets equal depths pass fails the frame comparison."""
    monkeypatch.setattr(kernel_oracle, "earlyz_test", _earlyz_less_or_equal)
    with pytest.raises(AssertionError):
        _assert_frames_match_oracles(request, "vectorized", tiny_config)
