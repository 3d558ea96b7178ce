"""Regression gate: policy, wall/deterministic comparisons, reporting."""

import copy

import pytest

from repro.observability.regress import (
    DETERMINISTIC_SCENE_METRICS,
    GatePolicy,
    GateReport,
    MetricComparison,
    compare_documents,
)


def make_doc(wall_runs=(10.0, 11.0, 12.0), cycles=100.0, gpu_cycles=5000.0,
             energy_total=1e-3, edp=1e-6):
    """A minimal gate-comparable document (one scene, one stage)."""
    return {
        "config": {"width": 64, "height": 32, "frames": 2, "detail": 1,
                   "quick": True, "runs": len(wall_runs), "profile": False,
                   "kernel_backend": "vectorized", "broad_phase": "lbvh"},
        "scenes": {
            "cap": {
                "stages": {
                    "frame": {
                        "count": 2,
                        "cycles": cycles,
                        "wall_ms_median": sorted(wall_runs)[len(wall_runs) // 2],
                        "wall_ms_runs": list(wall_runs),
                    },
                },
                "totals": {"gpu_cycles": gpu_cycles},
                "counters": {
                    "gpu.mem.dram_bytes_read": 4096.0,
                    "gpu.mem.dram_bytes_written": 2048.0,
                },
                "energy": {
                    "gpu": {"total_j": energy_total * 0.8},
                    "rbcd": {"total_j": energy_total * 0.2},
                    "total_j": energy_total,
                    "edp_js": edp,
                },
            },
        },
    }


class TestGatePolicy:
    def test_defaults(self):
        policy = GatePolicy()
        assert policy.wall_tol == 0.25
        assert policy.metric_tol == 1e-9
        assert policy.alpha == 0.05

    @pytest.mark.parametrize("kwargs", [
        {"wall_tol": -0.1}, {"metric_tol": -1.0},
        {"alpha": 0.0}, {"alpha": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GatePolicy(**kwargs)


class TestSelfComparison:
    def test_document_vs_itself_is_clean(self):
        doc = make_doc()
        report = compare_documents(doc, copy.deepcopy(doc))
        assert report.ok
        assert not report.errors
        assert not report.regressions
        assert not report.improvements
        # frame wall + frame cycles + every deterministic scene metric
        # present in the fixture.
        assert len(report.comparisons) >= 2 + len(DETERMINISTIC_SCENE_METRICS) - 1


class TestWallGating:
    def test_large_significant_slowdown_regresses(self):
        base = make_doc(wall_runs=(1.0, 1.1, 1.2, 1.05, 1.15))
        cur = make_doc(wall_runs=(10.0, 10.5, 11.0, 10.2, 10.8))
        report = compare_documents(base, cur)
        walls = [c for c in report.regressions if c.kind == "wall"]
        assert len(walls) == 1
        assert walls[0].metric == "stages.frame.wall_ms"
        assert "Mann-Whitney" in walls[0].detail

    def test_large_but_overlapping_noise_passes(self):
        # Medians differ by >25% but the samples interleave heavily:
        # no disjoint CI, no significant test => not a regression.
        base = make_doc(wall_runs=(1.0, 9.0, 2.0, 8.0, 3.0))
        cur = make_doc(wall_runs=(8.5, 1.5, 9.5, 2.5, 7.0))
        report = compare_documents(base, cur)
        assert not [c for c in report.regressions if c.kind == "wall"]

    def test_small_slowdown_within_tolerance_passes(self):
        base = make_doc(wall_runs=(10.0, 10.1, 10.2))
        cur = make_doc(wall_runs=(11.0, 11.1, 11.2))  # +10% < 25% tol
        report = compare_documents(base, cur)
        assert not [c for c in report.regressions if c.kind == "wall"]

    def test_significant_speedup_reported_as_improvement(self):
        base = make_doc(wall_runs=(10.0, 10.5, 11.0, 10.2, 10.8))
        cur = make_doc(wall_runs=(1.0, 1.1, 1.2, 1.05, 1.15))
        report = compare_documents(base, cur)
        assert report.ok
        walls = [c for c in report.improvements if c.kind == "wall"]
        assert len(walls) == 1

    def test_single_run_documents_still_gate(self):
        base = make_doc(wall_runs=(1.0,))
        cur = make_doc(wall_runs=(10.0,))
        report = compare_documents(base, cur)
        walls = [c for c in report.regressions if c.kind == "wall"]
        assert len(walls) == 1
        assert "single-run" in walls[0].detail

    def test_wall_tolerance_is_configurable(self):
        base = make_doc(wall_runs=(1.0, 1.0, 1.0, 1.0, 1.0))
        cur = make_doc(wall_runs=(1.1, 1.1, 1.1, 1.1, 1.1))
        strict = compare_documents(base, cur, GatePolicy(wall_tol=0.05))
        loose = compare_documents(base, cur, GatePolicy(wall_tol=4.0))
        assert [c for c in strict.regressions if c.kind == "wall"]
        assert not [c for c in loose.regressions if c.kind == "wall"]


class TestDeterministicGating:
    @pytest.mark.parametrize("mutate,metric", [
        (lambda d: d["scenes"]["cap"]["totals"].update(gpu_cycles=5001.0),
         "totals.gpu_cycles"),
        (lambda d: d["scenes"]["cap"]["counters"].update(
            **{"gpu.mem.dram_bytes_read": 4097.0}),
         "counters.gpu.mem.dram_bytes_read"),
        (lambda d: d["scenes"]["cap"]["energy"].update(total_j=1.1e-3),
         "energy.total_j"),
        (lambda d: d["scenes"]["cap"]["energy"].update(edp_js=2e-6),
         "energy.edp_js"),
        (lambda d: d["scenes"]["cap"]["energy"]["rbcd"].update(total_j=3e-4),
         "energy.rbcd.total_j"),
    ])
    def test_any_increase_regresses(self, mutate, metric):
        base = make_doc()
        cur = make_doc()
        mutate(cur)
        report = compare_documents(base, cur)
        assert not report.ok
        assert metric in [c.metric for c in report.regressions]

    def test_stage_cycle_increase_regresses(self):
        report = compare_documents(make_doc(cycles=100.0), make_doc(cycles=101.0))
        assert "stages.frame.cycles" in [c.metric for c in report.regressions]

    def test_decrease_is_improvement_not_failure(self):
        report = compare_documents(
            make_doc(energy_total=1e-3), make_doc(energy_total=0.5e-3)
        )
        assert report.ok
        improved = {c.metric for c in report.improvements}
        assert "energy.total_j" in improved

    def test_float_noise_within_tolerance_passes(self):
        base = make_doc(gpu_cycles=5000.0)
        cur = make_doc(gpu_cycles=5000.0 * (1.0 + 1e-12))
        assert compare_documents(base, cur).ok

    def test_baseline_missing_metric_is_skipped(self):
        base = make_doc()
        del base["scenes"]["cap"]["energy"]["edp_js"]
        report = compare_documents(base, make_doc())
        assert report.ok
        assert "energy.edp_js" not in [c.metric for c in report.comparisons]

    def test_current_missing_metric_errors(self):
        cur = make_doc()
        del cur["scenes"]["cap"]["energy"]["edp_js"]
        report = compare_documents(make_doc(), cur)
        assert not report.ok
        assert any("edp_js" in e for e in report.errors)


class TestStructuralErrors:
    def test_config_mismatch_refused(self):
        cur = make_doc()
        cur["config"]["width"] = 128
        report = compare_documents(make_doc(), cur)
        assert not report.ok
        assert any("config.width" in e for e in report.errors)
        assert not report.comparisons  # refused before comparing anything

    def test_kernel_backend_mismatch_refused(self):
        # Backends are bit-identical but wall times differ, and wall
        # time is what the gate tests — such documents never compare.
        cur = make_doc()
        cur["config"]["kernel_backend"] = "reference"
        report = compare_documents(make_doc(), cur)
        assert not report.ok
        assert any("config.kernel_backend" in e for e in report.errors)

    def test_broad_phase_mismatch_refused(self):
        cur = make_doc()
        cur["config"]["broad_phase"] = "bruteforce"
        report = compare_documents(make_doc(), cur)
        assert not report.ok
        assert any("config.broad_phase" in e for e in report.errors)

    def test_runs_may_differ(self):
        # runs is a measurement parameter, not a workload parameter.
        base = make_doc(wall_runs=(1.0, 1.1, 1.2))
        cur = make_doc(wall_runs=(1.0, 1.1, 1.2, 1.3, 1.4))
        assert compare_documents(base, cur).ok

    def test_missing_scene_errors(self):
        cur = make_doc()
        cur["scenes"] = {}
        report = compare_documents(make_doc(), cur)
        assert any("cap" in e for e in report.errors)

    def test_missing_wall_samples_errors(self):
        cur = make_doc()
        del cur["scenes"]["cap"]["stages"]["frame"]["wall_ms_runs"]
        report = compare_documents(make_doc(), cur)
        assert any("wall_ms_runs" in e for e in report.errors)

    def test_documents_without_blocks(self):
        report = compare_documents({}, make_doc())
        assert any("config" in e for e in report.errors)


class TestRendering:
    def test_render_mentions_regressions_and_totals(self):
        base = make_doc(energy_total=1e-3)
        cur = make_doc(energy_total=2e-3)
        text = compare_documents(base, cur).render()
        assert "REGRESSION" in text
        assert "energy.total_j" in text
        assert "metrics checked" in text

    def test_render_suggests_baseline_refresh_on_pure_improvement(self):
        base = make_doc(energy_total=2e-3)
        cur = make_doc(energy_total=1e-3)
        text = compare_documents(base, cur).render()
        assert "refreshing the baseline" in text

    def test_ratio_handles_zero_baseline(self):
        comp = MetricComparison(
            scene="cap", metric="m", kind="deterministic",
            baseline=0.0, current=1.0, regressed=True, improved=False,
        )
        assert comp.ratio == float("inf")

    def test_empty_report_is_ok(self):
        assert GateReport().ok


class TestFailureLine:
    def test_regression_produces_greppable_line(self):
        base = make_doc(energy_total=1e-3)
        cur = make_doc(energy_total=2e-3)
        line = compare_documents(base, cur).failure_line()
        assert line.startswith("GATE-FAIL ")
        assert "scene=cap" in line
        assert "metric=energy.gpu.total_j" in line
        assert "kind=deterministic" in line
        assert "baseline=0.0008" in line
        assert "current=0.0016" in line
        assert "ratio=2" in line
        assert "\n" not in line

    def test_structural_error_produces_error_line(self):
        base = make_doc()
        other = make_doc()
        other["config"]["width"] = 999
        line = compare_documents(base, other).failure_line()
        assert line.startswith('GATE-FAIL error="')
        assert "config.width" in line

    def test_first_regression_wins_and_pass_is_empty(self):
        base = make_doc()
        assert compare_documents(base, copy.deepcopy(base)).failure_line() == ""
        report = GateReport(comparisons=[
            MetricComparison(scene="cap", metric="a", kind="deterministic",
                             baseline=1.0, current=2.0, regressed=True,
                             improved=False),
            MetricComparison(scene="cap", metric="b", kind="deterministic",
                             baseline=1.0, current=3.0, regressed=True,
                             improved=False),
        ])
        assert "metric=a" in report.failure_line()
        assert report.regressions == report.comparisons
