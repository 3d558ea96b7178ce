"""Differential tests: frame-batched assembly against the per-draw oracle.

``tests/gpu/assembly_oracle.py`` keeps the per-draw loop with its
per-face scalar Sutherland-Hodgman clipper as an independent reference.
Every fragment the RBCD unit sees comes from a triangle of this soup, in
this order, so the production ``assemble`` must agree with it byte for
byte: the same ``xy``, ``z``, ``object_id``, ``front``, ``tagged`` and
``draw_index`` arrays, and the same assembly counters.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings, strategies as st

import repro.gpu.assembly as assembly
from repro.geometry.mesh import TriangleMesh
from repro.geometry.primitives import make_box, make_torus, make_uv_sphere
from repro.geometry.vec import Mat4, Vec3
from repro.gpu.assembly import _CLIP_PLANES, _W_EPS, _clip_polygons, _plane_distance
from repro.gpu.commands import CullMode, DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.shading import ShadedDraw, shade_draws
from repro.gpu.stats import GPUStats
from tests.gpu.assembly_oracle import _clip_polygon_homogeneous
from tests.gpu.assembly_oracle import assemble as oracle_assemble

CFG = GPUConfig().with_screen(96, 64)
SOUP_FIELDS = ("xy", "z", "object_id", "front", "tagged", "draw_index")
COUNTERS = (
    "triangles_assembled",
    "triangles_frustum_culled",
    "triangles_clipped",
    "triangles_degenerate",
    "triangles_tagged_to_be_culled",
    "triangles_face_culled",
    "triangles_binned",
)


def run(assemble_fn, shaded, deferred):
    stats = GPUStats()
    soup = assemble_fn(shaded, CFG, stats, deferred_culling=deferred)
    arrays = {f: getattr(soup, f) for f in SOUP_FIELDS}
    return arrays, {c: getattr(stats, c) for c in COUNTERS}


def differences(assemble_fn, shaded, deferred) -> list[str]:
    """Names of the soup fields and counters where ``assemble_fn``
    disagrees with the oracle; empty when they are byte-equal."""
    got, got_counts = run(assemble_fn, shaded, deferred)
    want, want_counts = run(oracle_assemble, shaded, deferred)
    diff = [
        f for f in SOUP_FIELDS
        if (got[f].dtype, got[f].shape, got[f].tobytes())
        != (want[f].dtype, want[f].shape, want[f].tobytes())
    ]
    return diff + [c for c in COUNTERS if got_counts[c] != want_counts[c]]


def assert_matches_oracle(shaded, deferred) -> None:
    assert differences(assembly.assemble, shaded, deferred) == []


# -- random clip-space frames ----------------------------------------------

coord = st.floats(-6.0, 6.0)


@st.composite
def clip_vertex(draw):
    """A clip-space vertex, biased towards the clipper's boundaries."""
    x, y, z = draw(coord), draw(coord), draw(coord)
    kind = draw(st.sampled_from(
        ("inside", "free", "on_plane", "on_corner", "w_eps", "near_w_eps", "behind")
    ))
    if kind == "free":
        w = draw(st.floats(-2.0, 4.0))
    elif kind == "behind":
        w = draw(st.floats(-3.0, 0.0))
    elif kind == "w_eps":
        w = _W_EPS
        x, y, z = (c * 1e-6 for c in (x, y, z))
    elif kind == "near_w_eps":
        w = _W_EPS * draw(st.floats(0.5, 2.0))
    else:
        w = draw(st.floats(0.01, 4.0))
    if kind == "inside":
        x, y, z = (c / 6.0 * w for c in (x, y, z))
    elif kind == "on_plane":  # exactly on one plane: d == 0
        axis = draw(st.integers(0, 2))
        v = [x, y, z]
        v[axis] = w * draw(st.sampled_from((-1.0, 1.0)))
        x, y, z = v
    elif kind == "on_corner":  # exactly on three planes
        x, y, z = (w * draw(st.sampled_from((-1.0, 1.0))) for _ in range(3))
    return [x, y, z, w]


@st.composite
def clip_draw(draw, index: int):
    """One draw with hand-made clip-space positions."""
    clip = np.array(draw(st.lists(clip_vertex(), min_size=3, max_size=7)))
    n = clip.shape[0]
    corner = st.integers(0, n - 1)  # repeats make zero-area faces
    faces = draw(st.lists(st.lists(corner, min_size=3, max_size=3), min_size=1, max_size=6))
    command = DrawCommand(
        TriangleMesh(clip[:, :3], faces),
        Mat4.identity(),
        object_id=index + 1 if draw(st.booleans()) else None,
        cull_mode=draw(st.sampled_from(list(CullMode))),
    )
    return ShadedDraw(command, index, clip)


@st.composite
def clip_frames(draw):
    n = draw(st.integers(1, 4))
    return [draw(clip_draw(i)) for i in range(n)]


def shaded_from_rows(rows, cull_mode=CullMode.NONE):
    """A one-draw frame whose faces are the given (3, 4) clip triangles."""
    clip = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    faces = np.arange(clip.shape[0]).reshape(-1, 3)
    command = DrawCommand(
        TriangleMesh(clip[:, :3], faces), Mat4.identity(), cull_mode=cull_mode
    )
    return [ShadedDraw(command, 0, clip)]


# The widest polygon random search over normal triangles found: cut by
# all six planes into 9 vertices.
NINE_GON = [
    [3.40074567, -1.27421866, -7.16393771, 6.45433524],
    [5.34888268, -6.74429874, 2.44707385, 1.07326806],
    [-3.25736036, 3.15618457, 0.68176409, 1.52190452],
]
# One vertex behind the camera: the w stage cuts two edges.
W_CROSSING = [[0.2, 0.1, 0.3, 1.0], [-0.4, 0.2, 0.1, 2.0], [0.1, -0.3, 0.5, -1.5]]
# One vertex exactly on w = _W_EPS and one exactly on x = w (d == 0).
ON_BOUNDARIES = [[0.0, 0.0, 0.0, _W_EPS], [2.0, 0.5, 0.2, 2.0], [-3.0, 0.2, 0.1, 1.0]]
# All three vertices outside x <= w.
FULLY_OUTSIDE = [[2.0, 0.0, 0.0, 1.0], [3.0, 0.5, 0.0, 1.0], [2.5, -0.5, 0.0, 1.0]]


class TestRandomFrames:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(clip_frames(), st.booleans())
    @example(shaded_from_rows(NINE_GON), True)
    @example(shaded_from_rows([W_CROSSING, ON_BOUNDARIES, FULLY_OUTSIDE]), True)
    def test_matches_oracle(self, shaded, deferred):
        assert_matches_oracle(shaded, deferred)

    @pytest.mark.parametrize(
        "rows,vertices",
        [(NINE_GON, 9), (W_CROSSING, 4), (ON_BOUNDARIES, 4), (FULLY_OUTSIDE, 0)],
        ids=["nine-gon", "w-crossing", "on-boundaries", "fully-outside"],
    )
    def test_named_triangles_reach_their_cases(self, rows, vertices):
        out, count = _clip_polygons(np.array([rows], dtype=np.float64))
        assert count.tolist() == [vertices]
        want = _clip_polygon_homogeneous(np.array(rows, dtype=np.float64))
        assert want.shape[0] == vertices
        assert out[0, :vertices].tobytes() == want.reshape(-1, 4).tobytes()


    @pytest.mark.parametrize("deferred", [True, False])
    def test_empty_frame(self, deferred):
        assert_matches_oracle([], deferred)

# -- cameras inside meshes -----------------------------------------------

MESHES = {
    "box": make_box(Vec3(1.5, 1.0, 2.0)),
    "sphere": make_uv_sphere(1.2, 10, 6),
    "torus": make_torus(1.5, 0.4, 12, 6),
}
offset = st.floats(-2.0, 2.0)


@st.composite
def camera_frames(draw):
    """Meshes around a perspective camera at the origin, so vertices
    fall behind it and faces cross w = _W_EPS."""
    draws = []
    for i in range(draw(st.integers(1, 3))):
        model = Mat4.translation(Vec3(draw(offset), draw(offset), draw(offset)))
        draws.append(DrawCommand(
            MESHES[draw(st.sampled_from(sorted(MESHES)))],
            model @ Mat4.rotation_y(draw(st.floats(0.0, math.tau))),
            object_id=i + 1 if draw(st.booleans()) else None,
            cull_mode=draw(st.sampled_from(list(CullMode))),
        ))
    near = draw(st.sampled_from((0.05, 0.5)))
    frame = Frame(
        draws=tuple(draws),
        view=Mat4.identity(),
        projection=Mat4.perspective(math.radians(70.0), 1.5, near, 20.0),
    )
    return shade_draws(frame, CFG, GPUStats())


class TestCameraInsideMeshes:
    @settings(max_examples=80, deadline=None)
    @given(camera_frames(), st.booleans())
    def test_matches_oracle(self, shaded, deferred):
        assert_matches_oracle(shaded, deferred)

    def test_frames_cross_the_w_plane(self):
        shaded = find(
            camera_frames(),
            lambda s: any((d.clip_positions[:, 3] < _W_EPS).any() for d in s),
            settings=settings(database=None, derandomize=True),
        )
        assert_matches_oracle(shaded, True)


# -- the benchmark scenes ------------------------------------------------

@pytest.mark.parametrize("alias", ["cap", "crazy", "sleepy", "temple"])
def test_benchmark_scene_replay_matches_oracle(alias):
    from repro.scenes.benchmarks import workload_by_alias

    workload = workload_by_alias(alias, 1)
    for t in workload.times(3):
        frame = workload.scene.frame_at(float(t), CFG)
        shaded = shade_draws(frame, CFG, GPUStats())
        for deferred in (True, False):
            assert_matches_oracle(shaded, deferred)


# -- the clipper's parts ---------------------------------------------------

@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
def test_plane_distance_is_the_plane_dot(v):
    v = np.array(v)
    for plane in range(len(_CLIP_PLANES)):
        assert _plane_distance(v, plane) == v @ _CLIP_PLANES[plane]


# -- mutants the suite must catch ------------------------------------------

def mutant(old: str, new: str):
    """``assemble`` from a copy of the production module with one edit."""
    source = inspect.getsource(assembly)
    assert source.count(old) == 1, old
    namespace = {"__name__": "assembly_mutant"}
    exec(compile(source.replace(old, new), "assembly_mutant", "exec"), namespace)
    return namespace["assemble"]


def caught(mutant_assemble, frames):
    """A frame the mutant gets wrong, found by hypothesis."""
    return find(
        st.tuples(frames, st.booleans()),
        lambda case: differences(mutant_assemble, *case) != [],
        settings=settings(
            max_examples=2000, database=None, derandomize=True,
            phases=[Phase.generate],
        ),
    )


def test_suite_catches_generic_w_crossing():
    # The generic plane formula on d = w - eps is equal in exact
    # arithmetic, yet rounds differently on a share of crossings.
    generic = mutant(
        "t = (_W_EPS - cur[:, 3]) / (to[:, 3] - cur[:, 3])",
        "d_cur, d_to = cur[:, 3] - _W_EPS, to[:, 3] - _W_EPS\n"
        "        t = d_cur / (d_cur - d_to)",
    )
    caught(generic, camera_frames())


def test_suite_catches_fans_after_all_inside_triangles():
    frame_order = mutant(
        '    kept = kept[np.argsort(tri_draw[kept], kind="stable")]\n',
        "",
    )
    caught(frame_order, clip_frames())
