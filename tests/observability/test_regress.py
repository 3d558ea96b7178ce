"""Regression gate: exact two-way comparison of every scene value."""

import copy

import pytest

from repro.observability.regress import (
    REL_TOL,
    GateReport,
    MetricComparison,
    compare_documents,
)


def make_doc(cycles=100.0, gpu_cycles=5000.0, energy_total=1e-3, edp=1e-6):
    """A minimal gate-comparable document (one scene, one stage)."""
    return {
        "config": {"width": 64, "height": 32, "frames": 2, "detail": 1,
                   "quick": True, "tile_profile": True},
        "scenes": {
            "cap": {
                "frames": 2,
                "stages": {"frame": {"count": 2, "cycles": cycles}},
                "totals": {"gpu_cycles": gpu_cycles,
                           "fragments_produced": 700,
                           "colliding_pairs": 3},
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
                "cases": {"disjoint": 40, "crossing": 2, "nested": 1},
                "oracle": {"tp": 4, "fp": 0, "fn": 1},
                "tile_profile": {"enabled": True, "tiles_x": 2,
                                 "tiles_y": 1, "frames": 2,
                                 "cycles": [60.0, 40.0]},
            },
        },
    }


def changed(report):
    return [c.metric for c in report.mismatches]


class TestSelfComparison:
    def test_document_vs_itself_is_clean(self):
        doc = make_doc()
        report = compare_documents(doc, copy.deepcopy(doc))
        assert report.ok
        assert not report.errors
        assert not report.mismatches
        # Every leaf of the scene entry was compared.
        assert report.checked == 24


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
        assert changed(report) == [metric]

    @pytest.mark.parametrize("mutate,metric", [
        (lambda e: e["stages"]["frame"].update(cycles=99.0),
         "stages.frame.cycles"),
        (lambda e: e["totals"].update(colliding_pairs=0),
         "totals.colliding_pairs"),
        (lambda e: e["totals"].update(colliding_pairs=4),
         "totals.colliding_pairs"),
        (lambda e: e["cases"].update(crossing=1), "cases.crossing"),
        (lambda e: e["oracle"].update(fn=2), "oracle.fn"),
        (lambda e: e["oracle"].update(tp=3), "oracle.tp"),
        (lambda e: e["tile_profile"]["cycles"].__setitem__(1, 41.0),
         "tile_profile.cycles[1]"),
        (lambda e: e.update(frames=3), "frames"),
    ], ids=[
        "stage-cycle-decrease", "pairs-lost", "pairs-gained",
        "cases", "oracle-fn", "oracle-tp", "tile-cell", "frames",
    ])
    def test_any_change_fails_on_its_own(self, mutate, metric):
        cur = make_doc()
        mutate(cur["scenes"]["cap"])
        report = compare_documents(make_doc(), cur)
        assert not report.ok
        assert changed(report) == [metric]
        assert report.failure_line().startswith(
            f"GATE-FAIL scene=cap metric={metric} "
        )

    def test_stage_cycle_increase_regresses(self):
        report = compare_documents(make_doc(cycles=100.0), make_doc(cycles=101.0))
        assert "stages.frame.cycles" in changed(report)

    def test_decrease_fails_the_gate(self):
        report = compare_documents(
            make_doc(energy_total=1e-3), make_doc(energy_total=0.5e-3)
        )
        assert not report.ok
        assert "energy.total_j" in changed(report)

    def test_float_noise_within_tolerance_passes(self):
        base = make_doc(gpu_cycles=5000.0)
        cur = make_doc(gpu_cycles=5000.0 * (1.0 + 1e-12))
        assert compare_documents(base, cur).ok

    def test_float_change_beyond_tolerance_fails(self):
        base = make_doc(gpu_cycles=5000.0)
        cur = make_doc(gpu_cycles=5000.0 * (1.0 + 10 * REL_TOL))
        assert changed(compare_documents(base, cur)) == ["totals.gpu_cycles"]

    def test_integer_leaves_compare_exactly(self):
        # Within REL_TOL as a ratio, but integers must be equal.
        base = make_doc()
        cur = make_doc()
        base["scenes"]["cap"]["totals"]["fragments_produced"] = 10**12
        cur["scenes"]["cap"]["totals"]["fragments_produced"] = 10**12 + 1
        report = compare_documents(base, cur)
        assert changed(report) == ["totals.fragments_produced"]

    def test_zero_baseline_fails_on_any_value(self):
        base = make_doc()
        cur = make_doc()
        base["scenes"]["cap"]["energy"]["edp_js"] = 0.0
        cur["scenes"]["cap"]["energy"]["edp_js"] = 1e-300
        assert changed(compare_documents(base, cur)) == ["energy.edp_js"]

    def test_metric_missing_from_baseline_fails(self):
        base = make_doc()
        del base["scenes"]["cap"]["energy"]["edp_js"]
        report = compare_documents(base, make_doc())
        assert not report.ok
        assert any("energy.edp_js is not in the baseline" in e
                   for e in report.errors)

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
        assert report.checked == 0  # refused before comparing anything

    def test_missing_scene_errors(self):
        cur = make_doc()
        cur["scenes"] = {}
        report = compare_documents(make_doc(), cur)
        assert any("cap" in e for e in report.errors)

    def test_extra_scene_errors(self):
        cur = make_doc()
        cur["scenes"]["crazy"] = copy.deepcopy(cur["scenes"]["cap"])
        report = compare_documents(make_doc(), cur)
        assert not report.ok
        assert any("'crazy' is not in the baseline" in e
                   for e in report.errors)

    def test_documents_without_blocks(self):
        report = compare_documents({}, make_doc())
        assert any("config" in e for e in report.errors)


class TestRendering:
    def test_render_mentions_regressions_and_totals(self):
        base = make_doc(energy_total=1e-3)
        cur = make_doc(energy_total=2e-3)
        text = compare_documents(base, cur).render()
        assert "CHANGED" in text
        assert "cap/energy.total_j: 0.001 -> 0.002" in text
        assert "24 values checked, 3 changed" in text

    def test_ratio_handles_zero_baseline(self):
        comp = MetricComparison(
            scene="cap", metric="m", baseline=0.0, current=1.0,
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
        report = GateReport(mismatches=[
            MetricComparison(scene="cap", metric="a", baseline=1, current=2),
            MetricComparison(scene="cap", metric="b", baseline=1, current=3),
        ])
        assert "metric=a" in report.failure_line()
        assert not report.ok
