"""The Figure 5 interference truth table, case by case.

Lists are front-to-back sequences of ``[X`` (front face of object X)
and ``]X`` (back face); the paper's table prescribes exactly which
cases report the pair <A, B>.
"""

import pytest

from repro.gpu.config import RBCDConfig
from repro.rbcd.overlap import (
    CASE_CROSSING,
    CASE_DISJOINT,
    CASE_NAMES,
    CASE_NESTED,
)
from tests.rbcd.zoverlap_oracle import analyze_pixel_list

CFG = RBCDConfig()

A, B, C = 1, 2, 3


def run(sequence):
    """``sequence`` is a list of (object_id, is_front) front-to-back;
    depths are assigned in list order."""
    z = list(range(len(sequence)))
    ids = [s[0] for s in sequence]
    fronts = [s[1] for s in sequence]
    result = analyze_pixel_list(z, ids, fronts, CFG)
    return sorted(
        {tuple(sorted(p)) for p in zip(result.pair_id_a, result.pair_id_b)}
    ), result


F, K = True, False  # front, back


class TestFigure5Cases:
    def test_case1_disjoint_a_before_b(self):
        # [A ]A [B ]B : no collision; both closures emit nothing.
        pairs, result = run([(A, F), (A, K), (B, F), (B, K)])
        assert pairs == []
        assert result.pair_case.tolist() == []
        assert result.disjoint_closures == 2

    def test_case2_a_contains_b_start(self):
        # [A [B ]A ]B : notify <A,B> at ]A, while [B is still
        # unmatched on the stack — the crossing signature.  The trailing
        # ]B closure emits nothing (it only sees tagged entries above
        # nothing), so it counts as one disjoint-closure event.
        pairs, result = run([(A, F), (B, F), (A, K), (B, K)])
        assert pairs == [(A, B)]
        assert result.pair_records == 1
        assert result.pair_case.tolist() == [CASE_CROSSING]
        assert result.pair_stack_depth.tolist() == [2]
        assert result.disjoint_closures == 1

    def test_case3_b_nested_in_a(self):
        # [A [B ]B ]A : notify <A,B> at ]A, after ]B already tagged its
        # front — the nested signature.  The inner ]B closure emits
        # nothing and counts as the disjoint-closure event.
        pairs, result = run([(A, F), (B, F), (B, K), (A, K)])
        assert pairs == [(A, B)]
        assert result.pair_records == 1
        assert result.pair_case.tolist() == [CASE_NESTED]
        assert result.pair_stack_depth.tolist() == [2]
        assert result.disjoint_closures == 1

    def test_case4_a_nested_in_b(self):
        # [B [A ]A ]B : same as case 3 with A, B interchanged.
        pairs, result = run([(B, F), (A, F), (A, K), (B, K)])
        assert pairs == [(A, B)]
        assert result.pair_case.tolist() == [CASE_NESTED]

    def test_case5_b_contains_a_start(self):
        # [B [A ]B ]A : same as case 2 interchanged.
        pairs, result = run([(B, F), (A, F), (B, K), (A, K)])
        assert pairs == [(A, B)]
        assert result.pair_case.tolist() == [CASE_CROSSING]

    def test_case6_disjoint_b_before_a(self):
        # [B ]B [A ]A : no collision.
        pairs, result = run([(B, F), (B, K), (A, F), (A, K)])
        assert pairs == []
        assert result.disjoint_closures == 2


class TestBeyondTwoObjects:
    def test_three_way_overlap(self):
        # [A [B [C ]A ]B ]C : A-B, A-C (interval of A contains B and C
        # starts), B-C.
        pairs, _ = run([(A, F), (B, F), (C, F), (A, K), (B, K), (C, K)])
        assert pairs == [(A, B), (A, C), (B, C)]

    def test_chain_without_triple(self):
        # [A [B ]A ]B [C ]C : A-B only.
        pairs, _ = run([(A, F), (B, F), (A, K), (B, K), (C, F), (C, K)])
        assert pairs == [(A, B)]

    def test_matched_front_still_seen_by_later_backs(self):
        # [A [B ]B ]A then another B layer: [A [B ]B [B ]B ]A.
        # Tagging (not popping) lets ]A still pair with both B layers'
        # fronts above it... and the B fronts pair against A's interval.
        pairs, _ = run([(A, F), (B, F), (B, K), (B, F), (B, K), (A, K)])
        assert pairs == [(A, B)]

    def test_concave_same_object_layers_do_not_self_collide(self):
        # A torus-like double layer of A: [A ]A [A ]A and nested variant.
        pairs, _ = run([(A, F), (A, K), (A, F), (A, K)])
        assert pairs == []
        pairs, _ = run([(A, F), (A, F), (A, K), (A, K)])
        assert pairs == []

    def test_interleaved_concave_object_pair(self):
        # A's two layers straddling B: [A ]A [B [A ]A ]B.
        pairs, _ = run([(A, F), (A, K), (B, F), (A, F), (A, K), (B, K)])
        assert pairs == [(A, B)]


class TestEdgeBehaviour:
    def test_unmatched_back_face_reports_nothing(self):
        # Front face lost (clipped or overflowed): ]A alone.
        pairs, result = run([(A, K)])
        assert pairs == []
        assert result.unmatched_backfaces == 1

    def test_unmatched_back_does_not_disturb_other_pairs(self):
        pairs, result = run([(C, K), (A, F), (B, F), (A, K), (B, K)])
        assert pairs == [(A, B)]
        assert result.unmatched_backfaces == 1

    def test_stack_overflow_drops_push(self):
        cfg = RBCDConfig(ff_stack_entries=2)
        seq = [(A, F), (B, F), (C, F)]
        result = analyze_pixel_list(
            list(range(3)), [s[0] for s in seq], [s[1] for s in seq], cfg
        )
        assert result.stack_overflows == 1

    def test_bottommost_match_selected(self):
        # Two unmatched A fronts; ]A must match the bottom one and
        # report everything above it (the second [A is filtered as a
        # self-pair, [B is reported).
        pairs, result = run([(A, F), (A, F), (B, F), (A, K), (B, K), (A, K)])
        assert pairs == [(A, B)]
        # <A,B> is found twice: once via ]A over [B, once via ]B over
        # the still-stacked fronts... count raw records:
        assert result.pair_records >= 2

    def test_empty_list(self):
        pairs, result = run([])
        assert pairs == []
        assert result.elements_read == 0

    def test_front_only_list(self):
        pairs, _ = run([(A, F), (B, F)])
        assert pairs == []

    def test_pair_depths_recorded(self):
        _, result = run([(A, F), (B, F), (A, K), (B, K)])
        # Pair found at ]A (z=2) against [B (z=1).
        assert result.pair_z_front.tolist() == [1]
        assert result.pair_z_back.tolist() == [2]

    def test_self_pair_filtering_is_counted(self):
        # Bottommost-match sequence from above: the second [A sits
        # inside the closing A interval and is suppressed exactly once.
        _, result = run([(A, F), (A, F), (B, F), (A, K), (B, K), (A, K)])
        assert result.self_pairs_filtered == 1
        # Concave single object: the inner-layer emission is filtered,
        # both closures end up pair-less.
        _, result = run([(A, F), (A, F), (A, K), (A, K)])
        assert result.self_pairs_filtered == 1
        assert result.disjoint_closures == 2


class TestFigure5CaseCoverage:
    """A crafted scene exercising every Figure-5 case id end to end.

    Three object pairs, separated along X so they cannot interact with
    each other, each arranged along the camera axis to produce one
    interference class at their shared pixels:

    * ids 1/2 — partially crossing depth intervals (cases 2/5);
    * ids 3/4 — box 4 fully nested inside box 3 (cases 3/4);
    * ids 5/6 — depth-disjoint but screen-overlapping (cases 1/6).

    The assertion that every case id in ``CASE_NAMES`` shows up (and no
    id outside it) is what catches a dead or mislabeled case branch.
    """

    def test_every_case_id_is_exercised(self):
        from repro.geometry.primitives import make_box
        from repro.geometry.vec import Mat4, Vec3
        from repro.gpu.commands import DrawCommand, Frame
        from repro.gpu.config import GPUConfig
        from repro.gpu.pipeline import GPU
        from repro.observability.provenance import ProvenanceRecorder
        from tests.conftest import simple_projection, simple_view

        config = GPUConfig().with_screen(160, 96)
        big = make_box(Vec3(0.5, 0.5, 0.5))
        small = make_box(Vec3(0.2, 0.2, 0.2))
        draws = (
            # Crossing pair: intervals [−0.5, 0.5] and [0.1, 1.1] in z.
            DrawCommand(big, Mat4.translation(Vec3(-2.5, 0.0, 0.0)),
                        object_id=1),
            DrawCommand(big, Mat4.translation(Vec3(-2.3, 0.0, 0.6)),
                        object_id=2),
            # Nested pair: the small box sits inside the big one.
            DrawCommand(big, Mat4.translation(Vec3(0.0, 0.0, 0.0)),
                        object_id=3),
            DrawCommand(small, Mat4.translation(Vec3(0.0, 0.0, 0.0)),
                        object_id=4),
            # Disjoint pair: same pixels, separated along the view axis.
            DrawCommand(big, Mat4.translation(Vec3(2.5, 0.0, 1.0)),
                        object_id=5),
            DrawCommand(big, Mat4.translation(Vec3(2.5, 0.0, -1.0)),
                        object_id=6),
        )
        aspect = config.screen_width / config.screen_height
        frame = Frame(
            draws=draws,
            view=simple_view(),
            projection=simple_projection(aspect),
        )
        recorder = ProvenanceRecorder()
        gpu = GPU(config, rbcd_enabled=True, observers=[recorder])
        result = gpu.render_frame(frame)

        assert result.collisions.as_sorted_pairs() == [(1, 2), (3, 4)]
        # Every defined case id fires; no emission uses an unknown id.
        emitted_cases = {ev.case_id for ev in recorder.records}
        assert emitted_cases == {CASE_CROSSING, CASE_NESTED}
        assert recorder.case_counts[CASE_DISJOINT] > 0
        assert set(CASE_NAMES) == (
            emitted_cases | {CASE_DISJOINT}
        ), "a Figure-5 case id is defined but never exercised"
        # The crafted pairs exhibit their intended classes.  Silhouette
        # pixels rasterize thin side-face slivers whose tiny depth
        # intervals can nest inside the partner's, so the crossing pair
        # may carry a few nested emissions too — membership, not
        # exclusivity, is the stable property.
        assert CASE_CROSSING in {ev.case_id for ev in recorder.pairs_for(1, 2)}
        assert {ev.case_id for ev in recorder.pairs_for(3, 4)} == {
            CASE_NESTED
        }
