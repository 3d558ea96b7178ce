"""Rasterizer tests: exact fragments, fill rule, depth interpolation."""

import numpy as np
import pytest

from repro.gpu.assembly import TriangleSoup
from repro.gpu.config import GPUConfig
from repro.gpu.raster import FRAGMENT_DTYPES, FragmentSoup, rasterize
from repro.gpu.stats import GPUStats
from tests.gpu.kernel_oracle import rasterize_triangle

CFG = GPUConfig().with_screen(64, 64)


def soup_from(xy_list, z_list, object_ids=None, fronts=None, tagged=None):
    n = len(xy_list)
    return TriangleSoup(
        xy=np.array(xy_list, dtype=np.float64),
        z=np.array(z_list, dtype=np.float64),
        object_id=np.array(object_ids if object_ids is not None else [-1] * n),
        front=np.array(fronts if fronts is not None else [True] * n),
        tagged=np.array(tagged if tagged is not None else [False] * n),
        draw_index=np.zeros(n, dtype=np.int64),
    )


class TestSingleTriangle:
    def test_axis_aligned_square_coverage(self):
        # Two triangles forming the pixel-aligned square [8, 16) x [8, 16).
        tri1 = [[8.0, 8.0], [16.0, 8.0], [8.0, 16.0]]
        tri2 = [[16.0, 8.0], [16.0, 16.0], [8.0, 16.0]]
        frags = rasterize(
            soup_from([tri1, tri2], [[0.5] * 3] * 2), CFG, GPUStats()
        )
        covered = set(zip(frags.x.tolist(), frags.y.tolist()))
        expected = {(x, y) for x in range(8, 16) for y in range(8, 16)}
        assert covered == expected
        # The shared diagonal must not double-produce fragments.
        assert frags.count == 64

    def test_shared_vertical_edge_no_double_coverage(self):
        left = [[4.0, 4.0], [10.0, 4.0], [10.0, 12.0]]
        right = [[10.0, 4.0], [16.0, 4.0], [10.0, 12.0]]
        frags = rasterize(soup_from([left, right], [[0.5] * 3] * 2), CFG, GPUStats())
        pixels = list(zip(frags.x.tolist(), frags.y.tolist()))
        assert len(pixels) == len(set(pixels)), "shared edge produced duplicates"

    def test_tiny_triangle_between_pixel_centers(self):
        tri = [[5.1, 5.1], [5.3, 5.1], [5.2, 5.3]]
        result = rasterize_triangle(np.array(tri), np.array([0.5] * 3), 64, 64)
        assert result is None

    def test_degenerate_returns_none(self):
        tri = np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 9.0]])
        assert rasterize_triangle(tri, np.array([0.5] * 3), 64, 64) is None

    def test_offscreen_clamped(self):
        tri = [[-10.0, -10.0], [5.0, -10.0], [-10.0, 5.0]]
        frags = rasterize(soup_from([tri], [[0.5] * 3]), CFG, GPUStats())
        assert (frags.x >= 0).all() and (frags.y >= 0).all()

    def test_winding_does_not_change_coverage(self):
        ccw = [[4.0, 4.0], [20.0, 4.0], [4.0, 20.0]]
        cw = [ccw[0], ccw[2], ccw[1]]
        a = rasterize(soup_from([ccw], [[0.5] * 3]), CFG, GPUStats())
        b = rasterize(soup_from([cw], [[0.5] * 3]), CFG, GPUStats())
        pix_a = set(zip(a.x.tolist(), a.y.tolist()))
        pix_b = set(zip(b.x.tolist(), b.y.tolist()))
        assert pix_a == pix_b


class TestDepthInterpolation:
    def test_constant_depth(self):
        tri = [[4.0, 4.0], [20.0, 4.0], [4.0, 20.0]]
        frags = rasterize(soup_from([tri], [[0.25, 0.25, 0.25]]), CFG, GPUStats())
        assert np.allclose(frags.z, 0.25)

    def test_linear_gradient_in_x(self):
        # z = x / 64 across a right triangle.
        tri = [[0.0, 0.0], [64.0, 0.0], [0.0, 64.0]]
        frags = rasterize(soup_from([tri], [[0.0, 1.0, 0.0]]), CFG, GPUStats())
        expected = (frags.x + 0.5) / 64.0
        assert np.allclose(frags.z, expected, atol=1e-9)

    def test_vertex_depth_recovered_at_vertex_pixel(self):
        tri = [[2.0, 2.0], [30.0, 2.0], [2.0, 30.0]]
        frags = rasterize(soup_from([tri], [[0.1, 0.9, 0.5]]), CFG, GPUStats())
        idx = np.flatnonzero((frags.x == 2) & (frags.y == 2))
        assert idx.size == 1
        # Pixel centre (2.5, 2.5) is near vertex 0.
        assert frags.z[idx[0]] == pytest.approx(0.1, abs=0.05)


class TestAttributesAndStats:
    def test_attributes_propagate(self):
        tri = [[4.0, 4.0], [12.0, 4.0], [4.0, 12.0]]
        soup = soup_from(
            [tri, tri], [[0.5] * 3, [0.7] * 3],
            object_ids=[3, -1], fronts=[True, False], tagged=[False, True],
        )
        frags = rasterize(soup, CFG, GPUStats())
        first = frags.tri_index == 0
        assert (frags.object_id[first] == 3).all()
        assert frags.front[first].all()
        assert (~frags.tagged[first]).all()
        second = frags.tri_index == 1
        assert (frags.object_id[second] == -1).all()
        assert (~frags.front[second]).all()
        assert frags.tagged[second].all()

    def test_stats_counts(self):
        tri = [[4.0, 4.0], [12.0, 4.0], [4.0, 12.0]]
        stats = GPUStats()
        frags = rasterize(
            soup_from([tri], [[0.5] * 3], tagged=[True]), CFG, stats
        )
        assert stats.fragments_produced == frags.count
        assert stats.fragments_tagged_culled == frags.count

    def test_arrival_order_is_submission_order(self):
        tri = [[4.0, 4.0], [12.0, 4.0], [4.0, 12.0]]
        frags = rasterize(soup_from([tri, tri], [[0.5] * 3] * 2), CFG, GPUStats())
        switches = np.diff(frags.tri_index)
        assert (switches >= 0).all(), "fragments must arrive per-triangle in order"

    def test_empty_soup(self):
        frags = rasterize(TriangleSoup.empty(), CFG, GPUStats())
        assert frags.count == 0

    def test_tile_index(self):
        tri = [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]]
        frags = rasterize(soup_from([tri], [[0.5] * 3]), CFG, GPUStats())
        tiles = frags.tile_index(CFG)
        expected = (frags.y // 16).astype(np.int64) * CFG.tiles_x + frags.x // 16
        assert (tiles == expected).all()


class TestWatertightness:
    def test_fan_covers_quad_exactly_once(self):
        """A triangle fan must tile its polygon with no seams or overlap."""
        center = [16.0, 16.0]
        ring = [
            [4.0, 4.0], [28.0, 4.0], [28.0, 28.0], [4.0, 28.0], [4.0, 4.0]
        ]
        tris = []
        for i in range(4):
            tris.append([center, ring[i], ring[i + 1]])
        frags = rasterize(
            soup_from(tris, [[0.5] * 3] * 4), CFG, GPUStats()
        )
        pixels = list(zip(frags.x.tolist(), frags.y.tolist()))
        assert len(pixels) == len(set(pixels)), "fan overlap"
        expected = {(x, y) for x in range(4, 28) for y in range(4, 28)}
        assert set(pixels) == expected, "fan seam"


class TestFragmentDtypeContract:
    """Both FragmentSoup construction paths honour FRAGMENT_DTYPES.

    The populated path gathers fields from the TriangleSoup, so without
    explicit coercion its dtypes would drift with whatever the caller
    built the soup from (e.g. int32 object ids from a default
    ``np.array`` on Windows) — and then differ from ``empty()``,
    breaking concatenation and pickling invariants.
    """

    TRI = [[8.0, 8.0], [16.0, 8.0], [8.0, 16.0]]

    def test_empty_matches_contract(self):
        empty = FragmentSoup.empty()
        for name, dtype in FRAGMENT_DTYPES.items():
            assert getattr(empty, name).dtype == dtype, name

    def test_populated_matches_contract(self):
        frags = rasterize(
            soup_from([self.TRI], [[0.5] * 3], object_ids=[3]), CFG, GPUStats()
        )
        assert frags.count > 0
        for name, dtype in FRAGMENT_DTYPES.items():
            assert getattr(frags, name).dtype == dtype, name

    def test_populated_matches_contract_with_drifted_inputs(self):
        # A soup built with narrow/odd dtypes must still come out on
        # contract: rasterize() owns the coercion.
        soup = TriangleSoup(
            xy=np.array([self.TRI], dtype=np.float64),
            z=np.array([[0.5] * 3], dtype=np.float64),
            object_id=np.array([3], dtype=np.int16),
            front=np.array([1], dtype=np.uint8),
            tagged=np.array([0], dtype=np.int32),
            draw_index=np.zeros(1, dtype=np.int32),
        )
        frags = rasterize(soup, CFG, GPUStats())
        assert frags.count > 0
        for name, dtype in FRAGMENT_DTYPES.items():
            assert getattr(frags, name).dtype == dtype, name

    def test_empty_and_populated_concatenate(self):
        empty = FragmentSoup.empty()
        frags = rasterize(soup_from([self.TRI], [[0.5] * 3]), CFG, GPUStats())
        for name in FRAGMENT_DTYPES:
            merged = np.concatenate(
                [getattr(empty, name), getattr(frags, name)]
            )
            assert merged.dtype == FRAGMENT_DTYPES[name], name
