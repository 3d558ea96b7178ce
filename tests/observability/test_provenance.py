"""Unit tests for the provenance layer: evidence, export, validation."""

import json

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.pipeline import GPU
from repro.observability.export import (
    provenance_instant_events,
    to_chrome_trace,
    to_provenance_ndjson,
)
from repro.observability.provenance import (
    PairEvidence,
    ProvenanceRecorder,
    evidence_from_tile,
    validate_evidence_record,
    validate_provenance_ndjson,
)
from repro.observability.tracer import Tracer
from repro.rbcd.overlap import CASE_CROSSING, CASE_NESTED
from tests.conftest import sphere_pair_frame, two_boxes_frame


def render_with_recorder(config, frame):
    recorder = ProvenanceRecorder()
    gpu = GPU(config, rbcd_enabled=True, observers=[recorder])
    return recorder, gpu.render_frame(frame, keep_fragments=True)


@pytest.fixture
def colliding(small_config):
    return render_with_recorder(
        small_config, two_boxes_frame(small_config, 0.8)
    )


class TestEvidence:
    def test_records_validate_against_the_schema(self, colliding):
        recorder, _ = colliding
        assert recorder.pairs_recorded > 0
        for ev in recorder.records:
            assert validate_evidence_record(ev.as_record()) == []

    def test_evidence_pairs_are_canonical_and_on_screen(
        self, colliding, small_config
    ):
        recorder, _ = colliding
        for ev in recorder.records:
            lo, hi = ev.pair
            assert lo < hi
            assert {lo, hi} == {ev.id_front, ev.id_back}
            assert 0 <= ev.x < small_config.screen_width
            assert 0 <= ev.y < small_config.screen_height
            assert ev.stack_depth >= 1
            assert ev.case_id in (CASE_CROSSING, CASE_NESTED)
            # Sorted list: the front (Idi) element starts no deeper
            # than the back (Ecur) element that closed on it.
            assert ev.z_front_code <= ev.z_back_code
            assert 0.0 <= ev.z_front <= ev.z_back <= 1.0

    def test_pairs_for_and_witness_pixels(self, colliding):
        recorder, result = colliding
        (pair,) = result.collisions.as_sorted_pairs()
        assert recorder.pairs_for(*pair)
        assert recorder.pairs_for(pair[1], pair[0]) == recorder.pairs_for(
            *pair
        )
        pixels = recorder.witness_pixels(*pair)
        assert pixels == sorted(set(pixels))
        assert recorder.pairs_for(99, 100) == []

    def test_registry_names_and_values(self, colliding):
        recorder, _ = colliding
        counters = recorder.registry().as_dict()
        assert counters["rbcd.evidence.pairs"] == recorder.pairs_recorded
        assert counters["rbcd.evidence.frames"] == 1
        assert counters["rbcd.evidence.tiles"] == recorder.tiles_recorded
        assert (
            counters["rbcd.case.crossing"] + counters["rbcd.case.nested"]
            == recorder.pairs_recorded
        )
        assert counters["rbcd.case.disjoint"] >= 0


class TestShardMerge:
    """Evidence computed tile by tile with ``evidence_from_tile`` is
    exactly what the recorder collects."""

    def test_tile_evidence_of_matches_the_recorder(self, small_config):
        frame = two_boxes_frame(small_config, 0.8)
        reference, result = render_with_recorder(
            small_config, frame
        )
        tasks = gather_tile_tasks(result.fragments, small_config)
        tiles = TileExecutor().run(small_config, tasks)
        sharded = [
            ev
            for tile in tiles
            for ev in evidence_from_tile(tile, small_config, frame=0)
        ]
        assert sharded == reference.records

    def test_evidence_from_tile_empty_without_pairs(self, small_config):
        frame = two_boxes_frame(small_config, 1.6)  # separated: no pairs
        _, result = render_with_recorder(small_config, frame)
        tasks = gather_tile_tasks(result.fragments, small_config)
        for tile in TileExecutor().run(small_config, tasks):
            assert evidence_from_tile(tile, small_config) == []


class TestExport:
    def test_ndjson_roundtrip_validates(self, colliding):
        recorder, _ = colliding
        text = to_provenance_ndjson(recorder)
        assert validate_provenance_ndjson(text) == recorder.pairs_recorded
        first = json.loads(text.splitlines()[0])
        assert first == recorder.records[0].as_record()

    def test_empty_recorder_exports_empty_log(self):
        assert to_provenance_ndjson(ProvenanceRecorder()) == ""
        assert validate_provenance_ndjson("") == 0
        assert validate_provenance_ndjson("\n  \n") == 0

    def test_chrome_trace_gains_instant_events(self, colliding):
        recorder, _ = colliding
        doc = to_chrome_trace(Tracer(), provenance=recorder)
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == recorder.pairs_recorded
        assert instants == provenance_instant_events(recorder)
        for event, ev in zip(instants, recorder.records):
            assert event["args"] == ev.as_record()
        # Without a recorder the document is unchanged by the new arg.
        plain = to_chrome_trace(Tracer())
        assert all(e.get("ph") != "i" for e in plain["traceEvents"])


class TestValidation:
    def valid(self):
        return PairEvidence(
            frame=0, tile=3, record=1, x=10, y=7,
            id_front=2, id_back=1, z_front_code=5, z_back_code=9,
            z_front=0.1, z_back=0.4, stack_depth=2,
            case_id=CASE_CROSSING,
        ).as_record()

    def test_valid_record_passes(self):
        assert validate_evidence_record(self.valid()) == []

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda r: r.pop("pixel"), "missing field 'pixel'"),
            (lambda r: r.update(type="span"), "type"),
            (lambda r: r.update(frame=-1), "frame"),
            (lambda r: r.update(stack_depth=0), "stack_depth"),
            (lambda r: r.update(pixel=[4]), "pixel"),
            (lambda r: r.update(pair=[2, 1]), "pair"),
            (lambda r: r.update(pair=[1, 1]), "pair"),
            (lambda r: r["elements"].pop(), "elements"),
            (lambda r: r["elements"][0].update(face="back"), "face"),
            (lambda r: r["elements"][1].update(z=1.5), "z in [0, 1]"),
            (lambda r: r["elements"][0].update(object=-2), "object"),
            (lambda r: r.update(case_id=99), "case_id"),
            (lambda r: r.update(case="nested"), "does not match"),
        ],
    )
    def test_broken_records_are_rejected(self, mutate, needle):
        record = self.valid()
        mutate(record)
        errors = validate_evidence_record(record)
        assert errors, "validator accepted a broken record"
        assert any(needle in e for e in errors)

    def test_non_dict_record_is_rejected(self):
        assert validate_evidence_record([1, 2]) != []

    def test_ndjson_validator_names_the_offending_line(self):
        good = json.dumps(self.valid())
        with pytest.raises(ValueError, match="line 2"):
            validate_provenance_ndjson(good + "\nnot json\n")
        bad = self.valid()
        bad["stack_depth"] = 0
        with pytest.raises(ValueError, match="line 3"):
            validate_provenance_ndjson(
                good + "\n" + good + "\n" + json.dumps(bad) + "\n"
            )
