"""CLI tests for ``python -m repro.experiments.attribute``."""

import copy
import json

import pytest

from repro.experiments.attribute import main, write_heatmaps
from repro.experiments.bench import run_bench
from repro.observability.attribution import attribute_documents
from repro.observability.tileprofile import GRID_NAMES


@pytest.fixture(scope="module")
def doc():
    return run_bench(
        ["crazy"], width=64, height=32, frames=1, detail=1,
        tile_profile=True,
    )


@pytest.fixture(scope="module")
def doc_path(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("attribute") / "base.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def other_path(doc, tmp_path_factory):
    """A consistently perturbed copy: the rasterizer got 100 cycles slower."""
    other = copy.deepcopy(doc)
    entry = other["scenes"]["crazy"]
    for key in ("gpu.raster.raster_cycles",
                "gpu.raster.raster_pipeline_cycles", "gpu.gpu_cycles"):
        entry["counters"][key] += 100.0
    entry["totals"]["gpu_cycles"] += 100.0
    path = tmp_path_factory.mktemp("attribute") / "other.json"
    path.write_text(json.dumps(other))
    return path


class TestExitCodes:
    def test_zero_on_clean_attribution(self, doc_path, other_path, capsys):
        assert main([str(doc_path), str(other_path)]) == 0
        out = capsys.readouterr().out
        assert "raster" in out

    def test_check_zero_passes_on_self_diff(self, doc_path, capsys):
        assert main([str(doc_path), str(doc_path), "--check-zero"]) == 0
        assert "documents agree" in capsys.readouterr().out

    def test_check_zero_fails_on_differing_docs(
        self, doc_path, other_path, capsys
    ):
        assert main([str(doc_path), str(other_path), "--check-zero"]) == 1
        assert "documents differ" in capsys.readouterr().err

    def test_missing_file_exits_two(self, doc_path, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main([str(doc_path), str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, doc_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad), str(doc_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_structurally_invalid_document_exits_two(
        self, doc_path, tmp_path, capsys
    ):
        bad = tmp_path / "empty.json"
        bad.write_text("{}")
        assert main([str(bad), str(doc_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_cross_check_exits_two(
        self, doc, doc_path, tmp_path, capsys
    ):
        broken = copy.deepcopy(doc)
        broken["scenes"]["crazy"]["totals"]["gpu_cycles"] += 1.0
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main([str(doc_path), str(path)]) == 2
        assert "cross-check failed" in capsys.readouterr().err


class TestFormats:
    def test_json_format_round_trips(self, doc_path, other_path, capsys):
        assert main(
            [str(doc_path), str(other_path), "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "rbcd-attribution"
        assert data["ranked_causes"]

    def test_csv_format_has_header(self, doc_path, other_path, capsys):
        assert main(
            [str(doc_path), str(other_path), "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scene,tree,path")
        assert len(lines) > 1

    def test_ascii_heatmap_prints_grid(self, doc_path, other_path, capsys):
        assert main(
            [str(doc_path), str(other_path), "--heatmap"]
        ) == 0
        assert "cycles delta" in capsys.readouterr().out


class TestHeatmapDir:
    def test_writes_one_csv_per_scene_grid(
        self, doc_path, other_path, tmp_path, capsys
    ):
        out = tmp_path / "heat"
        assert main(
            [str(doc_path), str(other_path), "--heatmap-dir", str(out)]
        ) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(f"crazy_{g}.csv" for g in GRID_NAMES)
        assert f"wrote {len(GRID_NAMES)}" in capsys.readouterr().err
        # Each CSV is a tiles_y x tiles_x numeric grid.
        rows = out.joinpath("crazy_cycles.csv").read_text().splitlines()
        assert len(rows) == 2  # 64x32 screen -> 4x2 tiles
        assert all(len(row.split(",")) == 4 for row in rows)

    def test_write_heatmaps_skips_unprofiled_scenes(self, doc, tmp_path):
        bare = copy.deepcopy(doc)
        bare["scenes"]["crazy"]["tile_profile"] = {"enabled": False}
        report = attribute_documents(bare, bare)
        assert write_heatmaps(report, tmp_path / "none") == []
