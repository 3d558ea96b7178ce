"""Forensics engine + explain CLI: every divergence gets a cause.

The engine's acceptance bar (mirrored by the CI smoke job): on the
``cap`` scene with a deliberately undersized ZEB (M=2) every
RBCD-vs-oracle divergence must land in the taxonomy — ``unclassified``
stays empty — and at the Table-2 default (M=8) RBCD and the oracle
agree outright.
"""

import json

import pytest

from repro.experiments.explain import build_config, main
from repro.gpu.config import GPUConfig
from repro.observability.forensics import (
    CAUSE_BROAD_PHASE,
    CAUSE_DEFERRED_CULLING,
    CAUSE_FF_STACK,
    CAUSE_ORACLE_CONTAINMENT,
    CAUSE_RESOLUTION,
    CAUSE_UNCLASSIFIED,
    CAUSE_Z_PRECISION,
    CAUSE_ZEB_OVERFLOW,
    CAUSES,
    Divergence,
    _classify_false_negative,
    _classify_false_positive,
    run_forensics,
)
from repro.observability.provenance import validate_provenance_ndjson
from repro.scenes.benchmarks import workload_by_alias

WIDTH, HEIGHT = 160, 96
FRAMES = 4  # cap's workload only collides mid-run; 4 samples hit it


@pytest.fixture(scope="module")
def starved_report():
    """cap with M=2: ZEB overflows drop pairs, forensics explains them."""
    workload = workload_by_alias("cap", detail=1)
    config = build_config(WIDTH, HEIGHT, zeb_elements=2)
    return run_forensics(workload, config, frames=FRAMES)


class TestRunForensics:
    def test_default_config_agrees_with_the_oracle(self):
        workload = workload_by_alias("cap", detail=1)
        config = build_config(WIDTH, HEIGHT, zeb_elements=8)
        report = run_forensics(workload, config, frames=FRAMES)
        assert report.divergences == []
        assert report.agreements > 0
        assert report.recorder.pairs_recorded > 0

    def test_starved_zeb_divergences_are_all_classified(
        self, starved_report
    ):
        assert starved_report.divergences, (
            "M=2 on cap should drop pairs — did the scene change?"
        )
        assert starved_report.unclassified == []
        for divergence in starved_report.divergences:
            assert divergence.cause in CAUSES
            assert divergence.cause != CAUSE_UNCLASSIFIED
            assert divergence.detail
            assert divergence.id_a < divergence.id_b
        assert CAUSE_ZEB_OVERFLOW in starved_report.by_cause()

    @pytest.mark.parametrize("spares", [0, 3])
    def test_overflow_at_counts_every_overflow_event(self, spares):
        # Summed over every collisionable pixel, the witness-pixel count
        # equals the unit's overflow events, spare pools per tile.
        from repro.experiments.overflow import rerun_unit
        from repro.gpu.pipeline import GPU
        from repro.observability.forensics import _FrameReplays

        config = build_config(WIDTH, HEIGHT, zeb_elements=2).with_rbcd(
            spare_entries_per_tile=spares
        )
        frame = workload_by_alias("cap", detail=1).scene.frame_at(1.0, config)
        frags = GPU(config).render_frame(frame, keep_fragments=True).fragments
        coll = frags.object_id >= 0
        pixels = set(zip(frags.x[coll].tolist(), frags.y[coll].tolist()))
        replays = _FrameReplays(frame, frags, config)
        events = rerun_unit(frags, config).tiles.zeb.overflow_events
        assert events > 0
        assert replays.overflow_at(sorted(pixels)) == events
        assert replays.overflow_at([]) == 0

    def test_report_document_shape(self, starved_report):
        doc = starved_report.as_document()
        assert doc["schema"] == "rbcd-forensics"
        assert doc["version"] == 1
        assert doc["scene"] == "cap"
        assert doc["config"] == {
            "frames": FRAMES,
            "width": WIDTH,
            "height": HEIGHT,
            "zeb_elements": 2,
        }
        assert len(doc["pairs"]["rbcd"]) == FRAMES
        assert len(doc["pairs"]["oracle"]) == FRAMES
        assert sum(doc["by_cause"].values()) == len(doc["divergences"])
        assert set(doc["by_cause"]) <= set(CAUSES)
        json.dumps(doc)  # JSON-serializable end to end

    def test_divergence_records(self):
        divergence = Divergence(
            frame=1, id_a=2, id_b=5, kind="false_negative",
            cause=CAUSE_ZEB_OVERFLOW, detail="dropped at (3, 4)",
            witness_pixels=[(3, 4)],
        )
        record = divergence.as_record()
        assert record["type"] == "divergence"
        assert record["pair"] == [2, 5]
        assert record["witness_pixels"] == [[3, 4]]
        assert "[FN] zeb-overflow" in divergence.describe()


class FakeReplays:
    """Duck-typed `_FrameReplays`: each rung's answer is scripted.

    Lets every branch of the classification ladder be exercised without
    rendering seven frames per test.
    """

    def __init__(
        self,
        *,
        faces=None,
        deep_stack=(),
        long_lists=(),
        fine_z=(),
        hires=(),
        drops=0,
    ):
        self.config = GPUConfig()
        self._faces = faces or {}
        self.deep_stack = set(deep_stack)
        self.long_lists = set(long_lists)
        self.fine_z = set(fine_z)
        self.hires = set(hires)
        self._drops = drops

    def fragment_faces(self, object_id):
        return self._faces.get(object_id, (10, 10))

    def overflow_at(self, pixels):
        return self._drops


class TestClassificationLadder:
    PAIR = (1, 2)

    def test_false_negative_rungs_in_order(self):
        everywhere = {self.PAIR}
        cases = [
            (FakeReplays(faces={2: (0, 0)}), CAUSE_BROAD_PHASE),
            (FakeReplays(faces={1: (0, 5)}), CAUSE_DEFERRED_CULLING),
            (FakeReplays(faces={2: (5, 0)}), CAUSE_DEFERRED_CULLING),
            (FakeReplays(deep_stack=everywhere), CAUSE_FF_STACK),
            (FakeReplays(long_lists=everywhere), CAUSE_ZEB_OVERFLOW),
            (FakeReplays(fine_z=everywhere), CAUSE_Z_PRECISION),
            (FakeReplays(hires=everywhere), CAUSE_RESOLUTION),
            (FakeReplays(), CAUSE_UNCLASSIFIED),
        ]
        for replays, expected in cases:
            cause, detail = _classify_false_negative(self.PAIR, replays)
            assert cause == expected, detail

    def test_false_negative_ffstack_wins_over_zeb(self):
        # The FF-Stack rung relaxes only the stack; if that alone flips
        # the verdict, ZEB capacity was never the limiter.
        replays = FakeReplays(
            deep_stack={self.PAIR}, long_lists={self.PAIR}
        )
        cause, _ = _classify_false_negative(self.PAIR, replays)
        assert cause == CAUSE_FF_STACK

    def test_false_positive_rungs_in_order(self):
        everywhere = {self.PAIR}
        all_rungs = dict(
            deep_stack=everywhere, long_lists=everywhere,
            fine_z=everywhere, hires=everywhere,
        )
        cases = [
            (FakeReplays(), True, CAUSE_ORACLE_CONTAINMENT),
            (FakeReplays(), False, CAUSE_FF_STACK),
            (
                FakeReplays(deep_stack=everywhere, drops=3),
                False,
                CAUSE_ZEB_OVERFLOW,
            ),
            (
                FakeReplays(deep_stack=everywhere, long_lists=everywhere),
                False,
                CAUSE_Z_PRECISION,
            ),
            (
                FakeReplays(
                    deep_stack=everywhere, long_lists=everywhere,
                    fine_z=everywhere,
                ),
                False,
                CAUSE_RESOLUTION,
            ),
            (FakeReplays(**all_rungs), False, CAUSE_UNCLASSIFIED),
        ]
        for replays, contained, expected in cases:
            cause, detail = _classify_false_positive(
                self.PAIR, replays, contained, [(0, 0)]
            )
            assert cause == expected, detail

    def test_false_positive_zeb_detail_counts_witness_drops(self):
        replays = FakeReplays(deep_stack={self.PAIR}, drops=7)
        cause, detail = _classify_false_positive(
            self.PAIR, replays, False, [(3, 4)]
        )
        assert cause == CAUSE_ZEB_OVERFLOW
        assert "7 element(s)" in detail


class TestExplainCLI:
    def run_cli(self, tmp_path, *extra):
        evidence = tmp_path / "evidence.ndjson"
        report = tmp_path / "report.json"
        argv = [
            "--scene", "cap", "--detail", "1",
            "--width", str(WIDTH), "--height", str(HEIGHT),
            "--frames", str(FRAMES),
            "--evidence", str(evidence), "--json", str(report),
            *extra,
        ]
        return main(argv), evidence, report

    def test_exit_zero_and_valid_evidence_with_default_zeb(self, tmp_path):
        code, evidence, report = self.run_cli(tmp_path, "--zeb-elements", "8")
        assert code == 0
        assert validate_provenance_ndjson(evidence.read_text()) > 0
        doc = json.loads(report.read_text())
        assert doc["by_cause"] == {}

    def test_starved_zeb_still_exits_zero_fully_classified(self, tmp_path):
        code, evidence, report = self.run_cli(tmp_path, "--zeb-elements", "2")
        assert code == 0  # divergences exist but all are classified
        doc = json.loads(report.read_text())
        assert doc["divergences"]
        assert CAUSE_UNCLASSIFIED not in doc["by_cause"]
        validate_provenance_ndjson(evidence.read_text())

    def test_rejects_bad_zeb_elements(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_cli(tmp_path, "--zeb-elements", "0")
