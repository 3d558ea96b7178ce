"""End-to-end regression gating through the bench CLI.

The acceptance contract of the gate: a fresh run against a baseline of
the *same tree* exits 0, and a run against a baseline with any value
changed — in either direction — exits non-zero.  A change in the model
is simulated by perturbing the stored baseline.
"""

import copy
import json

import pytest

from pathlib import Path

from repro.experiments.bench import gate_against_baseline, main, run_bench

QUICK_BASELINE = (Path(__file__).resolve().parents[2]
                  / "benchmarks" / "baselines" / "BENCH_quick.json")


@pytest.fixture(scope="module")
def bench_doc():
    """One real tiny document, shared by every gate test."""
    return run_bench(["crazy"], width=64, height=32, frames=1, detail=1,
                     quick=False)


@pytest.fixture()
def baseline_file(tmp_path, bench_doc):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(bench_doc))
    return path


def run_gate(tmp_path, baseline_path, *extra):
    return main([
        "--scenes", "crazy", "--width", "64", "--height", "32",
        "--frames", "1", "--detail", "1",
        "--output", str(tmp_path / "fresh.json"),
        "--baseline", str(baseline_path), "--gate",
        *extra,
    ])


class TestGateAgainstBaseline:
    def test_document_gates_clean_against_itself(self, bench_doc):
        report = gate_against_baseline(bench_doc, copy.deepcopy(bench_doc))
        assert report.ok, report.render()
        assert report.checked > 100

    def test_invalid_baseline_is_refused(self, bench_doc):
        report = gate_against_baseline(bench_doc, {"schema": "junk"})
        assert not report.ok
        assert any("baseline document invalid" in e for e in report.errors)

    def test_config_mismatch_refused_both_ways(self, bench_doc):
        other = copy.deepcopy(bench_doc)
        other["config"]["height"] += 16
        for first, second in ((bench_doc, other), (other, bench_doc)):
            report = gate_against_baseline(first, second)
            assert not report.ok
            assert any("config.height" in e for e in report.errors)


class TestGateCli:
    def test_unchanged_tree_exits_zero(self, tmp_path, baseline_file, capsys):
        assert run_gate(tmp_path, baseline_file) == 0
        out = capsys.readouterr().out
        assert "gate: ok" in out

    def test_injected_energy_bloat_exits_nonzero(self, tmp_path, bench_doc,
                                                 capsys):
        # A baseline with *less* energy than the tree produces is what a
        # real energy regression looks like to the gate.
        cheap = copy.deepcopy(bench_doc)
        scene = cheap["scenes"]["crazy"]
        for block in (scene["energy"], scene["energy"]["gpu"],
                      scene["energy"]["rbcd"]):
            for key, value in block.items():
                if isinstance(value, float):
                    block[key] = value * 0.5
        scene["counters"]["energy.total_j"] *= 0.5
        path = tmp_path / "cheap.json"
        path.write_text(json.dumps(cheap))

        assert run_gate(tmp_path, path) == 1
        captured = capsys.readouterr()
        assert "gate: FAILED" in captured.err
        assert "CHANGED" in captured.out
        assert "energy.total_j" in captured.out

    def test_injected_cycle_slowdown_exits_nonzero(self, tmp_path, bench_doc,
                                                   capsys):
        fast = copy.deepcopy(bench_doc)
        scene = fast["scenes"]["crazy"]
        scene["totals"]["gpu_cycles"] *= 0.9
        for record in scene["stages"].values():
            record["cycles"] *= 0.9
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast))

        assert run_gate(tmp_path, path) == 1
        assert "totals.gpu_cycles" in capsys.readouterr().out

    def test_without_gate_flag_regressions_are_informational(
            self, tmp_path, bench_doc, capsys):
        fast = copy.deepcopy(bench_doc)
        fast["scenes"]["crazy"]["totals"]["gpu_cycles"] *= 0.9
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast))
        code = main([
            "--scenes", "crazy", "--width", "64", "--height", "32",
            "--frames", "1", "--detail", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--baseline", str(path),
        ])
        assert code == 0
        assert "informational" in capsys.readouterr().out

    def test_config_mismatch_fails_gate(self, tmp_path, bench_doc, capsys):
        other = copy.deepcopy(bench_doc)
        other["config"]["width"] = 999
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other))
        assert run_gate(tmp_path, path) == 1
        assert "not comparable" in capsys.readouterr().out

    def test_unreadable_baseline_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_gate(tmp_path, path) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_committed_quick_baseline_gates_clean(self, tmp_path, capsys):
        """The acceptance command of this subsystem: the committed
        quick baseline must pass against the current tree."""
        assert QUICK_BASELINE.exists(), "committed quick baseline missing"
        code = main([
            "--quick", "--output", str(tmp_path / "fresh.json"),
            "--baseline", str(QUICK_BASELINE), "--gate",
        ])
        assert code == 0, capsys.readouterr().out

    def test_baseline_that_lost_its_collisions_fails(self, tmp_path, capsys):
        """A model that stops finding collisions must not get through:
        the committed quick baseline with every pair and case count
        zeroed, one fragment per scene, and half the cycles and joules
        is a change in both directions, and it fails the gate."""
        doc = json.loads(QUICK_BASELINE.read_text())
        for scene in doc["scenes"].values():
            totals = scene["totals"]
            totals.update(colliding_pairs=0, pair_records_written=0,
                          fragments_produced=1)
            totals["gpu_cycles"] /= 2
            for key in scene["cases"]:
                scene["cases"][key] = 0
            for record in scene["stages"].values():
                record["cycles"] /= 2
            scene["energy"]["total_j"] /= 2
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps(doc))
        code = main([
            "--quick", "--output", str(tmp_path / "fresh.json"),
            "--baseline", str(path), "--gate",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "GATE-FAIL scene=cap metric=" in captured.err
        for metric in ("totals.colliding_pairs", "cases.crossing",
                       "stages.frame.cycles", "energy.total_j"):
            assert f"crazy/{metric}:" in captured.out, metric


class TestTileProfileComparability:
    def test_profiled_vs_unprofiled_refused_both_ways(self, bench_doc):
        profiled = copy.deepcopy(bench_doc)
        profiled["config"]["tile_profile"] = True
        for first, second in ((bench_doc, profiled), (profiled, bench_doc)):
            report = gate_against_baseline(first, second)
            assert not report.ok
            assert any("config.tile_profile" in e for e in report.errors)

    def test_profile_off_vs_off_gates_clean(self, bench_doc):
        # Both sides off (the default) is the normal CI path and
        # must stay comparable.
        report = gate_against_baseline(bench_doc, copy.deepcopy(bench_doc))
        assert report.ok, report.render()


class TestExplainOnFailure:
    def consistently_faster_baseline(self, bench_doc, tmp_path, factor=0.9):
        """A baseline whose rasterizer was cheaper, with every counter
        identity intact so the attribution engine's cross-checks pass."""
        fast = copy.deepcopy(bench_doc)
        scene = fast["scenes"]["crazy"]
        delta = scene["counters"]["gpu.raster.raster_pipeline_cycles"] * (1 - factor)
        for key in ("gpu.raster.raster_cycles",
                    "gpu.raster.raster_pipeline_cycles", "gpu.gpu_cycles"):
            scene["counters"][key] -= delta
        scene["totals"]["gpu_cycles"] -= delta
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast))
        return path

    def test_gate_failure_emits_greppable_line(self, tmp_path, bench_doc,
                                               capsys):
        path = self.consistently_faster_baseline(bench_doc, tmp_path)
        assert run_gate(tmp_path, path) == 1
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("GATE-FAIL"))
        assert "scene=crazy" in line
        assert "metric=" in line and "ratio=" in line

    def test_explain_names_the_regressed_stage(self, tmp_path, bench_doc,
                                               capsys):
        """The ISSUE acceptance: on a forced regression, --explain must
        attribute the gated delta to the right subtree (the injected
        slowdown lives entirely in the raster pipeline)."""
        path = self.consistently_faster_baseline(bench_doc, tmp_path)
        json_path = tmp_path / "attribution.json"
        assert run_gate(
            tmp_path, path, "--explain", "--explain-json", str(json_path)
        ) == 1
        err = capsys.readouterr().err
        assert "explain" in err
        assert "raster" in err
        # The machine artifact CI uploads on failure.
        data = json.loads(json_path.read_text())
        assert data["schema"] == "rbcd-attribution"
        assert data["ranked_causes"]
        top_paths = [c["path"] for c in data["ranked_causes"][:3]]
        assert any("raster" in p for p in top_paths), top_paths

    def test_explain_requires_baseline_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--explain", "--output", str(tmp_path / "x.json")])
        assert "--baseline" in capsys.readouterr().err
