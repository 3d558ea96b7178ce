"""Public API (repro.core) tests."""

import numpy as np
import pytest

import repro
from repro import RBCDSystem, detect_collisions
from repro.core import default_camera_for
from repro.geometry.primitives import make_box, make_uv_sphere
from repro.geometry.vec import Mat4, Vec3
from repro.scenes.camera import Camera


def objects(separation: float):
    box = make_box(Vec3(0.5, 0.5, 0.5))
    return [
        (1, box, Mat4.translation(Vec3(-separation / 2, 0, 0))),
        (2, box, Mat4.translation(Vec3(separation / 2, 0, 0))),
    ]


class TestDetectCollisions:
    def test_overlapping_detected(self):
        assert detect_collisions(objects(0.7)) == {(1, 2)}

    def test_separated_clear(self):
        assert detect_collisions(objects(2.0)) == set()

    def test_empty_input(self):
        assert detect_collisions([]) == set()

    def test_explicit_camera(self):
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        assert detect_collisions(objects(0.7), camera=camera) == {(1, 2)}

    def test_three_objects(self):
        box = make_box(Vec3(0.5, 0.5, 0.5))
        objs = [
            (1, box, Mat4.translation(Vec3(0, 0, 0))),
            (2, box, Mat4.translation(Vec3(0.7, 0, 0))),
            (3, box, Mat4.translation(Vec3(5, 0, 0))),
        ]
        assert detect_collisions(objs) == {(1, 2)}

    def test_default_camera_frames_everything(self):
        cam = default_camera_for(objects(10.0))
        assert detect_collisions(objects(10.0), camera=cam) == set()


class TestRBCDSystem:
    def test_detect_returns_full_result(self):
        system = RBCDSystem(resolution=(160, 96))
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        result = system.detect(objects(0.7), camera)
        assert result.pairs == {(1, 2)}
        assert result.collides(1, 2)
        assert not result.collides(1, 3)
        contacts = result.contacts(1, 2)
        assert contacts
        first = contacts[0]
        assert 0 <= first.x < 160 and 0 <= first.y < 96
        assert 0.0 <= first.z_front <= first.z_back <= 1.0

    def test_stats_exposed(self):
        system = RBCDSystem(resolution=(160, 96))
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        result = system.detect(objects(0.7), camera)
        assert result.stats.fragments_produced > 0
        assert result.color.shape == (96, 160, 3)
        assert result.z_buffer.shape == (96, 160)

    def test_raster_only_mode(self):
        system = RBCDSystem(resolution=(160, 96))
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        result = system.detect(objects(0.7), camera, raster_only=True)
        assert result.pairs == {(1, 2)}
        assert result.stats.fragments_shaded == 0

    def test_positional_config_names_the_config_keyword(self):
        from repro.gpu.config import GPUConfig

        with pytest.raises(TypeError, match=r"config="):
            RBCDSystem(GPUConfig().with_screen(64, 32))
        config = GPUConfig().with_screen(64, 32)
        assert RBCDSystem(config=config).config is config

    @pytest.mark.parametrize("resolution", [
        (0, 96), (160, -1), (160.0, 96), (True, 96), (160,), (160, 96, 1),
        "160x96", None,
    ])
    def test_resolution_must_be_a_pair_of_positive_ints(self, resolution):
        with pytest.raises(ValueError, match="resolution must be a"):
            RBCDSystem(resolution=resolution)

    def test_custom_zeb_configuration(self):
        system = RBCDSystem(resolution=(160, 96), zeb_count=1, list_length=4)
        assert system.config.rbcd.zeb_count == 1
        assert system.config.rbcd.list_length == 4

    def test_extra_draws_render_but_do_not_collide(self):
        from repro.gpu.commands import DrawCommand

        system = RBCDSystem(resolution=(160, 96))
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        scenery = DrawCommand(
            make_uv_sphere(0.4), Mat4.translation(Vec3(0, 0.4, 0))
        )
        result = system.detect(objects(2.0), camera, extra_draws=(scenery,))
        assert result.pairs == set()

    def test_version_exported(self):
        assert repro.__version__


NON_FINITE = "draw 1 \\(object_id 2\\) has non-finite clip-space"


def frame_with(bad: str):
    """Two overlapping boxes; the second draw (or the camera) carries a
    NaN/inf in the named input."""
    from repro.geometry.mesh import TriangleMesh
    from repro.gpu.commands import DrawCommand, Frame

    box = make_box(Vec3(0.5, 0.5, 0.5))
    model = Mat4.translation(Vec3(0.35, 0, 0))
    mesh = box
    if bad == "model":
        model = Mat4.translation(Vec3(np.nan, 0, 0))
    elif bad == "vertices":
        vertices = box.vertices.copy()
        vertices[3, 1] = np.inf
        mesh = TriangleMesh(vertices, box.faces)
    camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
    view = camera.view()
    if bad == "view":
        view = Mat4(np.where(np.eye(4) == 1, np.inf, view.a))
    draws = (
        DrawCommand(box, Mat4.translation(Vec3(-0.35, 0, 0)), object_id=1),
        DrawCommand(mesh, model, object_id=2),
    )
    return Frame(
        draws=draws, view=view, projection=camera.projection(160 / 96)
    )


class TestNonFiniteInput:
    """A NaN or inf anywhere in a draw's transform chain is refused with
    an error naming the draw, not an unrelated failure in tiling."""

    @pytest.mark.parametrize("bad", ["model", "vertices"])
    def test_detect_frame_names_the_draw(self, bad):
        system = RBCDSystem(resolution=(160, 96))
        with pytest.raises(ValueError, match=NON_FINITE):
            system.detect_frame(frame_with(bad))

    def test_detect_frame_bad_view_names_the_first_draw(self):
        system = RBCDSystem(resolution=(160, 96))
        with pytest.raises(
            ValueError, match="draw 0 \\(object_id 1\\) has non-finite"
        ):
            system.detect_frame(frame_with("view"))

    def test_detect_collisions_names_the_draw(self):
        objs = objects(0.7)
        objs[1] = (2, objs[1][1], Mat4.translation(Vec3(0, np.inf, 0)))
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        with pytest.raises(ValueError, match=NON_FINITE):
            detect_collisions(objs, camera=camera)


class TestNonIntegerObjectIds:
    """Float ids used to truncate (3.2 and 3.7 both became 3, and their
    pair was dropped as a self-pair); string ids failed deep in the
    pipeline.  Both are refused with an error naming the id."""

    @pytest.mark.parametrize("ids", [(3.2, 3.7), ("a", "b")])
    def test_detect_collisions_refuses_non_integer_ids(self, ids):
        objs = [(oid, mesh, model)
                for oid, (_, mesh, model) in zip(ids, objects(0.7))]
        with pytest.raises(TypeError, match=f"got {ids[0]!r}"):
            detect_collisions(objs)

    def test_detect_frame_refuses_float_ids(self):
        from repro.gpu.commands import DrawCommand, Frame

        system = RBCDSystem(resolution=(160, 96))
        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        with pytest.raises(TypeError, match="got 3.2"):
            system.detect_frame(Frame(
                draws=tuple(
                    DrawCommand(mesh, model, object_id=oid)
                    for oid, (_, mesh, model) in zip((3.2, 3.7), objects(0.7))
                ),
                view=camera.view(),
                projection=camera.projection(160 / 96),
            ))



class TestCullModes:
    """``cull_mode="back"`` used to be accepted and then cull every
    face, so a visible box drew nothing.  Only ``CullMode`` values are
    accepted, and each removes the faces it names."""

    @staticmethod
    def box_frame(cull_mode):
        from repro.gpu.commands import DrawCommand, Frame

        camera = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
        return Frame(
            draws=(DrawCommand(make_box(), Mat4.identity(), cull_mode=cull_mode),),
            view=camera.view(),
            projection=camera.projection(160 / 96),
        )

    @pytest.mark.parametrize("cull_mode", ["back", None])
    def test_detect_frame_refuses_a_non_cull_mode(self, cull_mode):
        system = RBCDSystem(resolution=(160, 96))
        with pytest.raises(TypeError, match="cull_mode"):
            system.detect_frame(self.box_frame(cull_mode))

    def test_each_mode_culls_the_faces_it_names(self):
        from repro.gpu.commands import CullMode

        system = RBCDSystem(resolution=(160, 96))
        culled = {
            mode: system.detect_frame(self.box_frame(mode)).stats
            for mode in CullMode
        }
        # The camera sees the box's front face; its back face hides
        # behind it and shows only when front faces are culled.
        assert culled[CullMode.BACK].fragments_produced > 0
        assert culled[CullMode.FRONT].fragments_produced > 0
        assert culled[CullMode.NONE].fragments_produced == (
            culled[CullMode.BACK].fragments_produced
            + culled[CullMode.FRONT].fragments_produced
        )
        assert culled[CullMode.FRONT_AND_BACK].fragments_produced == 0
        assert culled[CullMode.FRONT_AND_BACK].triangles_face_culled == 12


def edge_case_objects(case: str):
    """``(object_id, mesh, model)`` triples for one edge-case input,
    seen by the camera at z = 6 looking at the origin."""
    from repro.geometry.mesh import TriangleMesh

    box = make_box(Vec3(0.5, 0.5, 0.5))
    if case == "empty":
        return []
    if case == "offscreen":  # overlapping pairs far aside and behind the eye
        return [
            (1, box, Mat4.translation(Vec3(100.0, 0, 0))),
            (2, box, Mat4.translation(Vec3(100.3, 0, 0))),
            (3, box, Mat4.translation(Vec3(0, 0, 20.0))),
            (4, box, Mat4.translation(Vec3(0.3, 0, 20.0))),
        ]
    if case == "single_pixel":  # ~0.05 world units per pixel at 160x96
        speck = make_box(Vec3(0.02, 0.02, 0.02))
        return [
            (1, speck, Mat4.translation(Vec3(0.026, 0.026, 0))),
            (2, speck, Mat4.translation(Vec3(0.036, 0.026, 0))),
        ]
    if case == "degenerate":  # collinear faces next to a real box
        line = TriangleMesh(
            np.array([[-1.0, 0, 0], [0, 0, 0], [1.0, 0, 0], [0, 0, 0.5]]),
            np.array([[0, 1, 2], [1, 0, 0], [3, 1, 3]]),
        )
        return [
            (1, line, Mat4.identity()),
            (2, box, Mat4.translation(Vec3(0.2, 0, 0))),
        ]
    low, high = {"id_8191": (8190, 8191), "id_8192": (1, 8192)}[case]
    return [(low, box, Mat4.translation(Vec3(-0.35, 0, 0))),
            (high, box, Mat4.translation(Vec3(0.35, 0, 0)))]


EDGE_CAMERA = Camera(eye=Vec3(0, 0, 6), target=Vec3.zero())
EDGE_ENTRIES = ["detect_frame", "detect_collisions", "submit"]


def edge_case_outcome(entry: str, objs):
    """Pairs plus, where the entry point exposes them, the fragment and
    cycle counts of one run on the kernels currently in place."""
    from repro.gpu.commands import DrawCommand, Frame
    from repro.gpu.config import GPUConfig
    from repro.serve import CollisionService

    if entry == "detect_collisions":
        return detect_collisions(objs, camera=EDGE_CAMERA, resolution=(160, 96))
    frame = Frame(
        draws=tuple(DrawCommand(mesh, model, object_id=oid)
                    for oid, mesh, model in objs),
        view=EDGE_CAMERA.view(),
        projection=EDGE_CAMERA.projection(160 / 96),
    )
    if entry == "detect_frame":
        result = RBCDSystem(resolution=(160, 96)).detect_frame(frame)
    else:
        with CollisionService(
            base_config=GPUConfig().with_screen(160, 96), rules=[]
        ) as service:
            service.register("t")
            future = service.submit("t", frame)
            service.drain()
            result = future.result(timeout=10).result
    return result.pairs, result.stats.fragments_produced, result.stats.gpu_cycles


class TestEdgeCaseInputs:
    """Empty, off-screen, single-pixel and degenerate geometry and the
    13-bit id limit at every entry point: each run matches the
    reference kernels, or is refused naming the id field."""

    # detect_collisions([]) is TestDetectCollisions.test_empty_input.
    @pytest.mark.parametrize("case, entry", [
        (case, entry)
        for case in ["empty", "offscreen", "single_pixel", "degenerate",
                     "id_8191"]
        for entry in EDGE_ENTRIES
        if (case, entry) != ("empty", "detect_collisions")
    ])
    def test_matches_reference_kernels(self, request, case, entry):
        objs = edge_case_objects(case)
        got = edge_case_outcome(entry, objs)
        request.getfixturevalue("reference_kernels")
        assert got == edge_case_outcome(entry, objs)

    @pytest.mark.parametrize("entry", EDGE_ENTRIES)
    def test_id_8192_names_the_field(self, entry):
        with pytest.raises(
            ValueError, match="object id 8192 exceeds the 13-bit ZEB id field"
        ):
            edge_case_outcome(entry, edge_case_objects("id_8192"))
