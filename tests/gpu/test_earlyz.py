"""Early depth test: vectorized pass vs a literal sequential reference,
and its Z-buffer and winner vs the scatter oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import GPUConfig
from repro.gpu.earlyz import depth_test
from repro.gpu.kernels import earlyz_test
from repro.gpu.raster import FragmentSoup
from repro.gpu.stats import GPUStats
from tests.gpu.earlyz_oracle import scatter_buffers

CFG = GPUConfig().with_screen(32, 32)


def make_frags(x, y, z, tagged=None, draw_index=None):
    n = len(x)
    return FragmentSoup(
        x=np.array(x, dtype=np.int32),
        y=np.array(y, dtype=np.int32),
        z=np.array(z, dtype=np.float64),
        object_id=np.full(n, -1, dtype=np.int64),
        front=np.ones(n, dtype=bool),
        tagged=np.array(tagged if tagged is not None else [False] * n),
        draw_index=np.array(draw_index if draw_index is not None else [0] * n),
        tri_index=np.arange(n, dtype=np.int64),
    )


def reference_depth_test(frags, width):
    """Literal sequential z-buffer (LESS, cleared to 1.0)."""
    buffer = {}
    passed = np.zeros(frags.count, dtype=bool)
    for i in range(frags.count):
        if frags.tagged[i]:
            continue
        key = (int(frags.x[i]), int(frags.y[i]))
        current = buffer.get(key, 1.0)
        if frags.z[i] < current:
            passed[i] = True
            buffer[key] = frags.z[i]
    return passed


class TestBasics:
    def test_single_fragment_passes(self):
        frags = make_frags([3], [4], [0.5])
        result = depth_test(frags, CFG, GPUStats())
        assert result.passed[0]
        assert result.z_buffer[4, 3] == pytest.approx(0.5)
        assert result.winner[4, 3] == 0

    def test_far_plane_fragment_fails(self):
        # Clear value is 1.0 and the test is LESS.
        frags = make_frags([3], [4], [1.0])
        result = depth_test(frags, CFG, GPUStats())
        assert not result.passed[0]
        assert result.winner[4, 3] == -1

    def test_occluded_fragment_fails(self):
        frags = make_frags([3, 3], [4, 4], [0.2, 0.5])
        result = depth_test(frags, CFG, GPUStats())
        assert result.passed.tolist() == [True, False]

    def test_front_to_back_both_pass(self):
        frags = make_frags([3, 3], [4, 4], [0.5, 0.2])
        result = depth_test(frags, CFG, GPUStats())
        assert result.passed.tolist() == [True, True]
        assert result.winner[4, 3] == 1

    def test_equal_depth_second_fails(self):
        frags = make_frags([3, 3], [4, 4], [0.5, 0.5])
        result = depth_test(frags, CFG, GPUStats())
        assert result.passed.tolist() == [True, False]

    def test_tagged_fragments_skip_test(self):
        frags = make_frags([3, 3], [4, 4], [0.2, 0.5], tagged=[True, False])
        stats = GPUStats()
        result = depth_test(frags, CFG, stats)
        # The tagged front fragment never wrote the buffer.
        assert result.passed.tolist() == [False, True]
        assert stats.early_z_tests == 1

    def test_different_pixels_independent(self):
        frags = make_frags([1, 2], [1, 1], [0.9, 0.1])
        result = depth_test(frags, CFG, GPUStats())
        assert result.passed.all()

    def test_empty(self):
        result = depth_test(FragmentSoup.empty(), CFG, GPUStats())
        assert result.passed.size == 0
        assert (result.z_buffer == 1.0).all()

    def test_stats(self):
        frags = make_frags([3, 3, 3], [4, 4, 4], [0.5, 0.3, 0.8])
        stats = GPUStats()
        depth_test(frags, CFG, stats)
        assert stats.early_z_tests == 3
        assert stats.early_z_passes == 2

    def test_tagged_fragments_are_not_counted(self):
        frags = make_frags(
            [3, 3, 3, 5], [4, 4, 4, 5], [0.5, 0.3, 0.1, 0.2],
            tagged=[False, True, False, True],
        )
        stats = GPUStats()
        result = depth_test(frags, CFG, stats)
        assert stats.early_z_tests == 2
        assert stats.early_z_passes == 2
        assert result.passed.tolist() == [True, False, True, False]
        assert result.winner[4, 3] == 2 and result.winner[5, 5] == -1
        assert result.z_buffer[5, 5] == 1.0


class TestKernelKeys:
    """The kernel packs each pixel above its fragment index."""

    def test_refuses_negative_pixel_indices(self):
        with pytest.raises(ValueError, match="pixel indices"):
            earlyz_test(np.array([0, -1]), np.array([0.5, 0.5]))

    def test_refuses_pixel_indices_too_large_to_pack(self):
        # Two fragments take one index bit, leaving 62 for the pixel.
        with pytest.raises(ValueError, match="pixel indices"):
            earlyz_test(np.array([0, 1 << 62]), np.array([0.5, 0.5]))

    def test_largest_packable_pixel_index(self):
        # Three fragments take two index bits, leaving 61.
        top = (1 << 61) - 1
        passed, visible = earlyz_test(
            np.array([top, 0, top]), np.array([0.5, 0.5, 0.25])
        )
        assert passed.tolist() == [True, True, True]
        assert visible.tolist() == [1, 2]
        with pytest.raises(ValueError, match="pixel indices"):
            earlyz_test(np.array([top + 1, 0, 0]), np.array([0.5] * 3))


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_sequential_reference(self, rows):
        x = [r[0] for r in rows]
        y = [r[1] for r in rows]
        z = [r[2] for r in rows]
        tagged = [r[3] for r in rows]
        frags = make_frags(x, y, z, tagged=tagged)
        result = depth_test(frags, CFG, GPUStats())
        expected = reference_depth_test(frags, CFG.screen_width)
        assert result.passed.tolist() == expected.tolist()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_zbuffer_is_per_pixel_minimum(self, seed):
        rng = np.random.RandomState(seed)
        n = 200
        frags = make_frags(
            rng.randint(0, 32, n), rng.randint(0, 32, n), rng.uniform(0, 1, n)
        )
        result = depth_test(frags, CFG, GPUStats())
        for pixel in range(20):
            px, py = rng.randint(0, 32), rng.randint(0, 32)
            mask = (frags.x == px) & (frags.y == py)
            expected = frags.z[mask].min() if mask.any() else 1.0
            assert result.z_buffer[py, px] == pytest.approx(expected)


# Depth ties, the clear value itself (never passes) and free depths.
depth = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.0]) | st.floats(0.0, 1.0)


class TestAgainstScatterOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        # Four pixels, so that most of them see several fragments.
        rows=st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(0, 1), depth, st.booleans()
            ),
            min_size=1,
            max_size=60,
        ),
        far=st.lists(
            st.tuples(st.integers(4, 7), st.integers(0, 7)), max_size=10
        ),
    )
    def test_buffers_match_scatter_oracle(self, rows, far):
        # ``far`` pixels get only z = 1.0 fragments: every test fails.
        rows = rows + [(x, y, 1.0, False) for x, y in far]
        x, y, z, tagged = (list(c) for c in zip(*rows))
        frags = make_frags(x, y, z, tagged=tagged)
        result = depth_test(frags, CFG, GPUStats())
        z_buffer, winner = scatter_buffers(
            frags.x, frags.y, frags.z, frags.tagged, result.passed,
            CFG.screen_width, CFG.screen_height,
        )
        np.testing.assert_array_equal(
            result.z_buffer.view(np.int64), z_buffer.view(np.int64)
        )
        np.testing.assert_array_equal(result.winner, winner)
