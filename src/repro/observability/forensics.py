"""Divergence forensics: explain every RBCD-vs-oracle disagreement.

Runs render-based collision detection and the exact software oracle
(AABB broad phase + triangle/triangle narrow phase, the Fig. 2 setup)
over the same scene, matches the per-frame pair sets, and classifies
every divergence into a root-cause taxonomy by *replaying the recorded
evidence* — the frame's rasterized fragment stream is re-fed through
RBCD units with one parameter relaxed at a time, and the first
relaxation that flips the verdict names the cause:

=====================  =====================================================
cause                  meaning / replay that pins it
=====================  =====================================================
``broad-phase-miss``   an object produced no collisionable fragments at all
                       (outside the view frustum, or fully clipped) — the
                       Section 3.6 case RBCD delegates to software CD
``deferred-culling``   the fragment stream lacks the front or the back
                       faces of an involved object, so no depth interval
                       can close on the FF-Stack (culling/clipping filtered
                       one side of the surface)
``ffstack-overflow``   re-running with a deep FF-Stack (same ZEB) flips the
                       verdict: pushes were dropped at the witness pixel
``zeb-overflow``       re-running with long ZEB lists flips the verdict:
                       elements were dropped at insertion (Table 3's
                       overflow effect, with the witness pixel's drop
                       count attached)
``z-precision``        re-running with finer depth quantization flips the
                       verdict: the pair hinged on the z-code margin
``raster-resolution``  re-rendering at higher resolution flips the
                       verdict: the Section 2.2 false-collisionable margin
                       (false positives) or inter-sample geometry (misses)
``oracle-containment`` GJK reports the convex shapes intersecting while
                       the surface-only triangle oracle reports nothing:
                       one object contains the other, which RBCD detects
                       by interval nesting but a surface test cannot
``unclassified``       none of the replays flip the verdict (the engine's
                       failure mode; tests assert it stays empty)
=====================  =====================================================

The module sits *on top of* the GPU pipeline — import it as
``repro.observability.forensics`` (it is deliberately not re-exported
by the package ``__init__``, which the pipeline itself imports).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.parallel import gather_tile_tasks
from repro.gpu.pipeline import GPU
from repro.observability.provenance import ProvenanceRecorder
from repro.physics.counters import OpCounter
from repro.physics.gjk import gjk_intersect
from repro.physics.shapes import ConvexShape
from repro.physics.world import CollisionWorld
from repro.rbcd.zeb import overflow_events_by_pixel
from repro.scenes.benchmarks import Workload

__all__ = [
    "CAUSES",
    "Divergence",
    "ForensicsReport",
    "run_forensics",
]

CAUSE_BROAD_PHASE = "broad-phase-miss"
CAUSE_DEFERRED_CULLING = "deferred-culling"
CAUSE_FF_STACK = "ffstack-overflow"
CAUSE_ZEB_OVERFLOW = "zeb-overflow"
CAUSE_Z_PRECISION = "z-precision"
CAUSE_RESOLUTION = "raster-resolution"
CAUSE_ORACLE_CONTAINMENT = "oracle-containment"
CAUSE_UNCLASSIFIED = "unclassified"

CAUSES = (
    CAUSE_BROAD_PHASE,
    CAUSE_DEFERRED_CULLING,
    CAUSE_FF_STACK,
    CAUSE_ZEB_OVERFLOW,
    CAUSE_Z_PRECISION,
    CAUSE_RESOLUTION,
    CAUSE_ORACLE_CONTAINMENT,
    CAUSE_UNCLASSIFIED,
)

# Replay knobs: "generous" budgets that remove a capacity limit without
# touching anything else, and the scale factor for the re-render rung.
_DEEP_STACK = 256
_LONG_LIST = 256
_FINE_Z_BITS = 26
_HIRES_SCALE = 4


@dataclass
class Divergence:
    """One classified RBCD-vs-oracle disagreement."""

    frame: int
    id_a: int                      # canonical low id
    id_b: int                      # canonical high id
    kind: str                      # "false_positive" | "false_negative"
    cause: str                     # one of CAUSES
    detail: str                    # human-readable explanation
    witness_pixels: list[tuple[int, int]] = field(default_factory=list)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.id_a, self.id_b)

    def as_record(self) -> dict:
        return {
            "type": "divergence",
            "frame": self.frame,
            "pair": [self.id_a, self.id_b],
            "kind": self.kind,
            "cause": self.cause,
            "detail": self.detail,
            "witness_pixels": [list(p) for p in self.witness_pixels],
        }

    def describe(self) -> str:
        tag = "FP" if self.kind == "false_positive" else "FN"
        return (
            f"frame {self.frame} pair ({self.id_a}, {self.id_b}) "
            f"[{tag}] {self.cause}: {self.detail}"
        )


@dataclass
class ForensicsReport:
    """Everything one forensics run concluded."""

    alias: str
    frames: int
    resolution: tuple[int, int]
    zeb_elements: int
    rbcd_pairs: list[set]          # per-frame RBCD pair sets
    oracle_pairs: list[set]        # per-frame oracle pair sets
    divergences: list[Divergence]
    recorder: ProvenanceRecorder   # the evidence the run recorded

    @property
    def agreements(self) -> int:
        return sum(
            len(r & o) for r, o in zip(self.rbcd_pairs, self.oracle_pairs)
        )

    def by_cause(self) -> dict[str, int]:
        counts = {cause: 0 for cause in CAUSES}
        for divergence in self.divergences:
            counts[divergence.cause] += 1
        return {cause: n for cause, n in counts.items() if n}

    @property
    def unclassified(self) -> list[Divergence]:
        return [
            d for d in self.divergences if d.cause == CAUSE_UNCLASSIFIED
        ]

    def as_document(self) -> dict:
        """JSON document (golden fixtures, CLI output)."""
        return {
            "schema": "rbcd-forensics",
            "version": 1,
            "scene": self.alias,
            "config": {
                "frames": self.frames,
                "width": self.resolution[0],
                "height": self.resolution[1],
                "zeb_elements": self.zeb_elements,
            },
            "pairs": {
                "rbcd": [sorted(p) for p in map(sorted, self.rbcd_pairs)],
                "oracle": [sorted(p) for p in map(sorted, self.oracle_pairs)],
                "agreements": self.agreements,
            },
            "case_histogram": self.recorder.case_histogram(),
            "by_cause": self.by_cause(),
            "divergences": [d.as_record() for d in self.divergences],
        }


def _pairs_of_unit(unit) -> set:
    return {(p.id_a, p.id_b) for p in unit.report.pairs}


def _rerun(frags, gpu_config: GPUConfig) -> set:
    """Re-feed a frame's fragment stream through a fresh RBCD unit."""
    from repro.experiments.overflow import rerun_unit

    return _pairs_of_unit(rerun_unit(frags, gpu_config))


class _FrameReplays:
    """Per-frame replay cache: each relaxation runs at most once."""

    def __init__(self, frame, frags, config: GPUConfig) -> None:
        self.frame = frame
        self.frags = frags
        self.config = config
        self._cache: dict[str, set] = {}

    def _get(self, key: str, compute) -> set:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def deep_stack(self) -> set:
        return self._get(
            "deep_stack",
            lambda: _rerun(
                self.frags,
                self.config.with_rbcd(ff_stack_entries=_DEEP_STACK),
            ),
        )

    @property
    def long_lists(self) -> set:
        return self._get(
            "long_lists",
            lambda: _rerun(
                self.frags,
                self.config.with_rbcd(
                    list_length=_LONG_LIST, ff_stack_entries=_DEEP_STACK
                ),
            ),
        )

    @property
    def fine_z(self) -> set:
        rbcd = self.config.rbcd
        return self._get(
            "fine_z",
            lambda: _rerun(
                self.frags,
                self.config.with_rbcd(
                    z_bits=_FINE_Z_BITS,
                    element_bits=_FINE_Z_BITS + rbcd.id_bits + 1,
                ),
            ),
        )

    @property
    def hires(self) -> set:
        """Re-render at ``_HIRES_SCALE``× with generous RBCD budgets.

        The generous budgets keep the extra fragments of the larger
        framebuffer from introducing *new* overflow misses, so this
        rung isolates raster sampling.
        """

        def compute() -> set:
            config = self.config.with_screen(
                self.config.screen_width * _HIRES_SCALE,
                self.config.screen_height * _HIRES_SCALE,
            ).with_rbcd(
                list_length=_LONG_LIST, ff_stack_entries=_DEEP_STACK
            )
            result = GPU(config, rbcd_enabled=True).render_frame(self.frame)
            assert result.collisions is not None
            return {
                (p.id_a, p.id_b) for p in result.collisions.pairs
            }

        return self._get("hires", compute)

    # -- fragment-stream evidence ----------------------------------------

    def fragment_faces(self, object_id: int) -> tuple[int, int]:
        """(front, back) collisionable fragment counts for one object."""
        mask = self.frags.object_id == object_id
        front = int((mask & self.frags.front).sum())
        return front, int(mask.sum()) - front

    def overflow_at(self, pixels: list[tuple[int, int]]) -> int:
        """Total ZEB overflow events at the given witness pixels."""
        ts = self.config.tile_size
        tiles_x = self.config.tiles_x
        wanted: dict[int, set[int]] = {}
        for x, y in pixels:
            tile = (y // ts) * tiles_x + (x // ts)
            local = (y % ts) * ts + (x % ts)
            wanted.setdefault(tile, set()).add(local)
        total = 0
        for task in gather_tile_tasks(self.frags, self.config):
            locals_wanted = wanted.get(task.tile_index)
            if not locals_wanted:
                continue
            local = (task.y % ts).astype(np.int64) * ts + (
                task.x % ts
            ).astype(np.int64)
            where, events = overflow_events_by_pixel(local, self.config.rbcd)
            for pixel, count in zip(where.tolist(), events.tolist()):
                if pixel in locals_wanted:
                    total += count
        return total


def _classify_false_negative(
    pair: tuple[int, int], replays: _FrameReplays
) -> tuple[str, str]:
    """Root-cause one pair the oracle found but RBCD missed."""
    for object_id in pair:
        front, back = replays.fragment_faces(object_id)
        if front == 0 and back == 0:
            return (
                CAUSE_BROAD_PHASE,
                f"object {object_id} produced no collisionable fragments "
                "(off-frustum or fully clipped); Section 3.6 delegates "
                "this object to software CD",
            )
    for object_id in pair:
        front, back = replays.fragment_faces(object_id)
        if front == 0 or back == 0:
            missing = "front" if front == 0 else "back"
            return (
                CAUSE_DEFERRED_CULLING,
                f"object {object_id} has no {missing}-face fragments "
                f"({front} front / {back} back), so its depth interval "
                "never closes on the FF-Stack",
            )
    if pair in replays.deep_stack:
        return (
            CAUSE_FF_STACK,
            f"found again with a {_DEEP_STACK}-entry FF-Stack "
            f"(configured: {replays.config.rbcd.ff_stack_entries}); "
            "pushes were dropped at the witness pixel",
        )
    if pair in replays.long_lists:
        return (
            CAUSE_ZEB_OVERFLOW,
            f"found again with M={_LONG_LIST} ZEB lists (configured: "
            f"M={replays.config.rbcd.list_length}); the witness "
            "elements were dropped at insertion",
        )
    if pair in replays.fine_z:
        return (
            CAUSE_Z_PRECISION,
            f"found again with {_FINE_Z_BITS}-bit depth codes "
            f"(configured: {replays.config.rbcd.z_bits}); the contact "
            "fell inside one quantization step",
        )
    if pair in replays.hires:
        return (
            CAUSE_RESOLUTION,
            f"found again at {_HIRES_SCALE}x resolution; the contact "
            "region fell between pixel-center sample rays",
        )
    return (CAUSE_UNCLASSIFIED, "no replay flips the verdict")


def _classify_false_positive(
    pair: tuple[int, int],
    replays: _FrameReplays,
    contained: bool,
    witness_pixels: list[tuple[int, int]],
) -> tuple[str, str]:
    """Root-cause one pair RBCD emitted but the oracle rejected."""
    if contained:
        return (
            CAUSE_ORACLE_CONTAINMENT,
            "GJK reports the convex shapes intersecting; the "
            "surface-only triangle oracle cannot see containment, "
            "which RBCD detects by interval nesting",
        )
    if pair not in replays.deep_stack:
        return (
            CAUSE_FF_STACK,
            f"vanishes with a {_DEEP_STACK}-entry FF-Stack; dropped "
            "pushes mispaired the surviving intervals",
        )
    if pair not in replays.long_lists:
        drops = replays.overflow_at(witness_pixels)
        return (
            CAUSE_ZEB_OVERFLOW,
            f"vanishes with M={_LONG_LIST} ZEB lists; "
            f"{drops} element(s) were dropped at the witness pixel(s), "
            "splicing unrelated intervals together",
        )
    if pair not in replays.fine_z:
        return (
            CAUSE_Z_PRECISION,
            f"vanishes with {_FINE_Z_BITS}-bit depth codes; the "
            "intervals only touch after quantization to "
            f"{replays.config.rbcd.z_bits}-bit codes",
        )
    if pair not in replays.hires:
        return (
            CAUSE_RESOLUTION,
            f"vanishes at {_HIRES_SCALE}x resolution; the Section 2.2 "
            "false-collisionable margin of one pixel covered both "
            "objects",
        )
    return (CAUSE_UNCLASSIFIED, "no replay flips the verdict")


def _convex_intersect(scene, t: float, id_a: int, id_b: int) -> bool:
    """GJK over the two objects' convex hulls at time ``t``."""
    ops = OpCounter()
    shapes = {}
    for obj in scene.objects:
        if not obj.collisionable:
            continue
        object_id = scene.object_id(obj.name)
        if object_id in (id_a, id_b):
            shape = ConvexShape(obj.mesh.vertices)
            shape.update_transform(obj.animator.transform(t), ops)
            shapes[object_id] = shape
    if len(shapes) != 2:
        return False
    return gjk_intersect(shapes[id_a], shapes[id_b], ops).intersecting


def run_forensics(
    workload: Workload,
    config: GPUConfig | None = None,
    frames: int | None = None,
    recorder: ProvenanceRecorder | None = None,
) -> ForensicsReport:
    """Run RBCD + oracle over a workload and classify every divergence.

    ``recorder`` (optional) receives the run's pair evidence; a fresh
    one is created otherwise.  The oracle is the software pipeline's
    ``broad+exact`` mode over the *render* meshes — the same surfaces
    the rasterizer sees, so tessellation differences cannot masquerade
    as RBCD divergences.
    """
    config = config if config is not None else GPUConfig()
    recorder = recorder if recorder is not None else ProvenanceRecorder()
    scene = workload.scene

    # The oracle's broad phase uses the LBVH backend: its pair set is
    # provably identical to brute force (the LBVH suite asserts it),
    # and it keeps oracle wall-time sub-quadratic on dense scenes.
    world = CollisionWorld("lbvh")
    collisionables = [
        (scene.object_id(obj.name), obj)
        for obj in scene.objects
        if obj.collisionable
    ]
    for object_id, obj in collisionables:
        world.add_object(object_id, obj.mesh)

    rbcd_pairs: list[set] = []
    oracle_pairs: list[set] = []
    divergences: list[Divergence] = []

    times = workload.times(frames)
    gpu = GPU(config, rbcd_enabled=True, observers=[recorder])
    for frame_index, t in enumerate(times):
        frame = scene.frame_at(float(t), config)
        result = gpu.render_frame(frame, keep_fragments=True)
        assert result.collisions is not None
        assert result.fragments is not None
        found = {(p.id_a, p.id_b) for p in result.collisions.pairs}

        for object_id, obj in collisionables:
            world.set_transform(object_id, obj.animator.transform(float(t)))
        exact = {tuple(p) for p in world.detect("broad+exact").pairs}

        rbcd_pairs.append(found)
        oracle_pairs.append(exact)

        replays = _FrameReplays(frame, result.fragments, config)
        for pair in sorted(found - exact):
            witness = recorder.witness_pixels(*pair, frame=frame_index)
            contained = _convex_intersect(scene, float(t), *pair)
            cause, detail = _classify_false_positive(
                pair, replays, contained, witness
            )
            divergences.append(
                Divergence(
                    frame=frame_index,
                    id_a=pair[0],
                    id_b=pair[1],
                    kind="false_positive",
                    cause=cause,
                    detail=detail,
                    witness_pixels=witness,
                )
            )
        for pair in sorted(exact - found):
            cause, detail = _classify_false_negative(pair, replays)
            divergences.append(
                Divergence(
                    frame=frame_index,
                    id_a=pair[0],
                    id_b=pair[1],
                    kind="false_negative",
                    cause=cause,
                    detail=detail,
                )
            )

    return ForensicsReport(
        alias=workload.alias,
        frames=len(times),
        resolution=(config.screen_width, config.screen_height),
        zeb_elements=config.rbcd.list_length,
        rbcd_pairs=rbcd_pairs,
        oracle_pairs=oracle_pairs,
        divergences=divergences,
        recorder=recorder,
    )
