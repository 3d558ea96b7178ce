"""Golden-frame provenance regression: evidence snapshots of two scenes.

Renders one fixed frame of the ``cap`` and ``temple`` workloads (the
same frame the golden counter/energy fixtures use) with a
:class:`ProvenanceRecorder` attached and compares the complete evidence
stream — every pair record with its witness pixel, ZEB elements,
FF-Stack depth, and Figure-5 case — plus the case histogram against
committed JSON fixtures.  Any change to rasterization, ZEB insertion,
the Z-Overlap Test, or the evidence plumbing shows up as a precise
per-record diff instead of a silent drift.

Regenerate the fixtures (after an *intentional* change) with:

    PYTHONPATH=src python tests/integration/test_golden_provenance.py
"""

import json
from pathlib import Path

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.observability.provenance import (
    ProvenanceRecorder,
    validate_evidence_record,
)
from repro.scenes.benchmarks import workload_by_alias

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SCENES = ("cap", "temple")
WIDTH, HEIGHT = 160, 96
DETAIL = 1
# A provenance fixture is only interesting on a frame that emits pairs:
# cap collides at the counter-fixtures' t=1.0, temple only around t=2.0.
FRAME_TIMES = {"cap": 1.0, "temple": 2.0}


def fixture_path(alias: str) -> Path:
    return FIXTURE_DIR / f"golden_provenance_{alias}.json"


def snapshot_scene(alias: str) -> dict:
    """Render the golden frame and collect the evidence stream."""
    config = GPUConfig().with_screen(WIDTH, HEIGHT)
    workload = workload_by_alias(alias, detail=DETAIL)
    frame = workload.scene.frame_at(FRAME_TIMES[alias], config)

    recorder = ProvenanceRecorder()
    gpu = GPU(config, rbcd_enabled=True, observers=[recorder])
    result = gpu.render_frame(frame)
    assert result.collisions is not None

    return {
        "scene": alias,
        "width": WIDTH,
        "height": HEIGHT,
        "detail": DETAIL,
        "frame_time": FRAME_TIMES[alias],
        "pairs": [list(p) for p in result.collisions.as_sorted_pairs()],
        "case_histogram": recorder.case_histogram(),
        "self_pairs_filtered": recorder.self_pairs_filtered,
        "tiles_recorded": recorder.tiles_recorded,
        "records": [ev.as_record() for ev in recorder.records],
    }


@pytest.mark.parametrize("alias", SCENES)
def test_golden_provenance(alias):
    path = fixture_path(alias)
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        f"PYTHONPATH=src python {__file__}"
    )
    expected = json.loads(path.read_text())
    actual = snapshot_scene(alias)

    assert actual["pairs"] == expected["pairs"], "collision pairs drifted"
    assert actual["case_histogram"] == expected["case_histogram"], (
        "Figure-5 case histogram drifted"
    )
    assert actual["self_pairs_filtered"] == expected["self_pairs_filtered"]
    assert actual["tiles_recorded"] == expected["tiles_recorded"]
    assert len(actual["records"]) == len(expected["records"]), (
        "evidence record count drifted"
    )
    for k, (got, want) in enumerate(
        zip(actual["records"], expected["records"])
    ):
        assert got == want, f"evidence record {k} drifted"


@pytest.mark.parametrize("alias", SCENES)
def test_fixture_records_validate(alias):
    """Committed fixtures stay valid against the evidence schema."""
    fixture = json.loads(fixture_path(alias).read_text())
    assert fixture["records"], "golden frame emitted no pairs?"
    for record in fixture["records"]:
        assert validate_evidence_record(record) == []


@pytest.mark.parametrize("alias", SCENES)
def test_fixture_metadata_matches_test_config(alias):
    """Guard against editing the test constants without regenerating."""
    fixture = json.loads(fixture_path(alias).read_text())
    assert fixture["scene"] == alias
    assert (fixture["width"], fixture["height"]) == (WIDTH, HEIGHT)
    assert fixture["detail"] == DETAIL
    assert fixture["frame_time"] == FRAME_TIMES[alias]


if __name__ == "__main__":
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for scene_alias in SCENES:
        out = fixture_path(scene_alias)
        out.write_text(
            json.dumps(snapshot_scene(scene_alias), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {out}")
