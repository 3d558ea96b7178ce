"""Kernel-backend conformance: every backend is bit-identical.

The kernel API contract (:mod:`repro.gpu.kernels`) is that all
registered backends compute the *same function* — not approximately,
byte for byte.  This suite is the enforcement: each test runs the
reference backend (the hardware-literal executable spec) next to every
other registered backend over golden fixtures and hypothesis-generated
fragment streams, and asserts full observable equality:

* rasterizer fragments (coordinates, depth *bit patterns*, triangle
  provenance, emission order);
* early-Z pass masks;
* ZEB contents and counters after insertion;
* Z-Overlap results — pairs, evidence arrays, and every counter;
* whole-frame fingerprints through the real pipeline, selected both by
  ``GPUConfig.kernel_backend`` and the environment variable.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import kernels
from repro.gpu.config import GPUConfig, RBCDConfig
from repro.gpu.pipeline import GPU
from repro.rbcd.element import quantize_depth
from tests.conftest import sphere_pair_frame, two_boxes_frame
from tests.gpu.test_parallel import frame_fingerprint
from tests.rbcd.test_differential import assert_zeb_equal

TILE_PIXELS = 256

REFERENCE = kernels.get_backend("reference")


# Every backend under test, reference included (it must match itself).
BACKENDS = [kernels.get_backend(n) for n in kernels.backend_names()]
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


def assert_overlap_equal(a, b):
    for name in (
        "pair_row", "pair_id_a", "pair_id_b", "pair_z_front",
        "pair_z_back", "pair_case", "pair_stack_depth",
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
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = kernels.backend_names()
        assert "reference" in names
        assert "vectorized" in names

    def test_available_backends_always_include_core_pair(self):
        available = kernels.backend_names()
        assert {"reference", "vectorized"} <= set(available)
        for name in available:
            assert kernels.get_backend(name).name == name

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("no-such-backend")

    def test_numba_is_an_unknown_backend(self, monkeypatch):
        """The numba backend was removed: naming it is a plain typo."""
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("numba")
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "numba")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            GPU(GPUConfig().with_screen(64, 32))

    def test_config_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "reference")
        assert GPUConfig().kernel_backend == "reference"
        monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV)
        assert GPUConfig().kernel_backend == kernels.DEFAULT_KERNEL_BACKEND

    def test_pipeline_rejects_unknown_backend_at_construction(self):
        config = GPUConfig().with_screen(64, 32).with_kernel_backend("bogus")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            GPU(config)


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
        np.testing.assert_array_equal(
            backend.earlyz_pass_mask(pixel, z),
            REFERENCE.earlyz_pass_mask(pixel, z),
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
    np.testing.assert_array_equal(
        backend.earlyz_pass_mask(pixel, z),
        REFERENCE.earlyz_pass_mask(pixel, z),
    )


# ---------------------------------------------------------------------------
# Whole-frame conformance through the pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    kernels.backend_names(),
)
def test_frame_fingerprints_identical_across_backends(name, tiny_config):
    reference_config = tiny_config.with_kernel_backend("reference")
    backend_config = tiny_config.with_kernel_backend(name)
    for separation in (0.6, 1.4):
        frame = sphere_pair_frame(tiny_config, separation)
        want = frame_fingerprint(GPU(reference_config).render_frame(frame))
        got = frame_fingerprint(GPU(backend_config).render_frame(frame))
        assert got == want


def test_env_var_selection_reaches_pipeline(monkeypatch, tiny_config):
    monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "reference")
    config = GPUConfig().with_screen(64, 32)
    assert config.kernel_backend == "reference"
    frame = two_boxes_frame(config, 0.8)
    want = frame_fingerprint(GPU(config).render_frame(frame))
    gpu = GPU(tiny_config.with_kernel_backend("vectorized"))
    assert frame_fingerprint(gpu.render_frame(frame)) == want
