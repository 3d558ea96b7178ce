"""Attribution engine tests: delta trees, exactness, ranking, checks.

The load-bearing property throughout: every ``exact`` (counter-derived)
non-leaf node's child deltas sum to the parent delta with residual
zero, on *any* pair of well-formed documents — asserted here both on a
synthetic perturbation and on a real pair of runs (one frame vs two).
"""

import copy

import pytest

from repro.experiments.bench import run_bench
from repro.observability.attribution import (
    AttributionReport,
    SpatialDelta,
    attribute_documents,
    cross_check_document,
)

EXACT_ABS_TOL = 1e-9


@pytest.fixture(scope="module")
def base_doc():
    """One cheap profiled bench document shared by every test here."""
    return run_bench(
        ["crazy"], width=64, height=32, frames=1, detail=1,
        tile_profile=True,
    )


@pytest.fixture(scope="module")
def frames_pair():
    """A real differing pair on one tile grid: the same workload
    rendered for one frame (baseline) and two (current), profiled."""
    kwargs = dict(width=64, height=32, detail=1, tile_profile=True)
    return (
        run_bench(["cap"], frames=1, **kwargs),
        run_bench(["cap"], frames=2, **kwargs),
    )


def perturbed(doc, extra_raster_cycles=100.0):
    """A consistent synthetic regression: the rasterizer got slower.

    The extra busy cycles are threaded through every identity that
    mentions them, so the perturbed document still passes its
    cross-checks — the delta is a model change, not corruption.
    """
    other = copy.deepcopy(doc)
    entry = other["scenes"]["crazy"]
    entry["counters"]["gpu.raster.raster_cycles"] += extra_raster_cycles
    entry["counters"]["gpu.raster.raster_pipeline_cycles"] += extra_raster_cycles
    entry["counters"]["gpu.gpu_cycles"] += extra_raster_cycles
    entry["totals"]["gpu_cycles"] += extra_raster_cycles
    return other


def exact_nodes(report):
    for attribution in report.scenes.values():
        for tree in attribution.trees:
            for _, node in tree.walk():
                if node.kind == "exact" and node.children:
                    yield node


class TestSelfDiff:
    def test_self_attribution_is_all_zero(self, base_doc):
        report = attribute_documents(base_doc, base_doc)
        assert report.ok
        assert report.all_zero
        assert report.warnings == []
        assert report.ranked_causes() == []
        assert "documents agree" in report.render_text()

    def test_cross_checks_pass_on_real_document(self, base_doc):
        assert cross_check_document(base_doc) == []


class TestExactness:
    def test_exact_trees_have_zero_residual_on_perturbation(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        assert report.ok
        nodes = list(exact_nodes(report))
        assert nodes  # the property must actually bite
        for node in nodes:
            assert abs(node.residual) <= max(
                EXACT_ABS_TOL, abs(node.delta) * 1e-9
            ), node.path

    def test_exact_trees_have_zero_residual_on_frames_pair(self, frames_pair):
        baseline, current = frames_pair
        report = attribute_documents(baseline, current)
        assert not report.errors and not report.checks
        nodes = list(exact_nodes(report))
        assert any(node.delta != 0.0 for node in nodes)
        for node in nodes:
            assert abs(node.residual) <= max(
                EXACT_ABS_TOL, abs(node.delta) * 1e-9
            ), node.path

    def test_child_sum_plus_residual_is_parent_delta_everywhere(
        self, base_doc
    ):
        """The structural invariant on every kind: delta == sum(child
        deltas) + residual, by construction — never silently off."""
        report = attribute_documents(base_doc, perturbed(base_doc))
        for attribution in report.scenes.values():
            for tree in attribution.trees:
                for _, node in tree.walk():
                    if node.children:
                        assert node.delta == pytest.approx(
                            node.child_sum + node.residual, abs=1e-12
                        )


class TestRankingAndExplain:
    def test_ranked_causes_name_the_injected_regression(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        causes = report.ranked_causes(top_k=5)
        assert causes
        top_paths = [c["path"] for c in causes[:3]]
        assert any("raster" in path for path in top_paths)

    def test_explain_decomposes_a_gated_metric(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        causes = report.explain("crazy", "totals.gpu_cycles")
        assert causes
        # The injected cause dominates: the raster-pipeline child
        # carries 100% of the gpu_cycles movement.
        assert "raster" in causes[0]["path"]
        assert causes[0]["share"] == pytest.approx(1.0)

    def test_explain_unknown_scene_or_metric_is_empty(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        assert report.explain("nope", "totals.gpu_cycles") == []
        assert report.explain("crazy", "totals.nope") == []

    def test_counter_namespace_trees_never_ranked(self, base_doc):
        other = copy.deepcopy(base_doc)
        # Move a counter with no rankable tree: only the namespace
        # walk sees it.
        other["scenes"]["crazy"]["counters"]["gpu.frames"] += 1
        report = attribute_documents(base_doc, other)
        assert report.ranked_causes() == []
        # But the namespace tree still carries the delta.
        node = report.scenes["crazy"].find("counters.gpu.frames")
        assert node is not None and node.delta == 1.0


class TestStructure:
    def test_wall_tree_carries_significance_evidence(self, base_doc):
        other = copy.deepcopy(base_doc)
        stage = other["scenes"]["crazy"]["stages"]["raster"]
        stage["wall_ms_runs"] = [v * 3.0 for v in stage["wall_ms_runs"]]
        stage["wall_ms_median"] *= 3.0
        report = attribute_documents(base_doc, other)
        wall = report.scenes["crazy"].find("stages.frame.wall_ms")
        assert wall is not None and wall.kind == "wall"
        raster = wall.find("stages.raster.wall_ms")
        assert raster is not None
        assert "significant" in raster.note

    def test_config_mismatch_warns_but_proceeds(self, frames_pair):
        baseline, current = frames_pair
        report = attribute_documents(baseline, current)
        assert any("config.frames" in w for w in report.warnings)
        assert report.scenes  # attribution still ran

    def test_missing_scene_is_an_error(self, base_doc):
        other = copy.deepcopy(base_doc)
        other["scenes"] = {}
        report = attribute_documents(base_doc, other)
        assert any("missing from current" in e for e in report.errors)
        assert not report.ok

    def test_non_document_input_is_an_error(self):
        report = attribute_documents({}, {"scenes": {}})
        assert report.errors


class TestCrossChecks:
    def test_broken_counter_algebra_is_caught(self, base_doc):
        broken = copy.deepcopy(base_doc)
        # gpu_cycles no longer equals geometry + raster_pipeline.
        broken["scenes"]["crazy"]["totals"]["gpu_cycles"] += 1.0
        failures = cross_check_document(broken, "broken")
        assert failures
        assert any("gpu_cycles" in f for f in failures)
        report = attribute_documents(base_doc, broken)
        assert report.checks
        assert not report.ok

    def test_broken_tile_profile_sum_is_caught(self, base_doc):
        broken = copy.deepcopy(base_doc)
        profile = broken["scenes"]["crazy"]["tile_profile"]
        profile["cycles"] = [v + 1.0 for v in profile["cycles"]]
        failures = cross_check_document(broken)
        assert any("tile_profile.cycles" in f for f in failures)


class TestSpatial:
    def test_spatial_delta_localizes_a_tile(self, base_doc):
        other = copy.deepcopy(base_doc)
        profile = other["scenes"]["crazy"]["tile_profile"]
        profile["cycles"] = list(profile["cycles"])
        profile["cycles"][2] += 500.0
        report = attribute_documents(base_doc, other)
        spatial = report.scenes["crazy"].spatial
        assert spatial is not None
        top = spatial.top_tiles("cycles")
        assert top[0] == (2, 500.0)
        assert "1/" in spatial.summary("cycles")

    def test_spatial_absent_when_either_side_unprofiled(self, base_doc):
        other = copy.deepcopy(base_doc)
        other["scenes"]["crazy"]["tile_profile"] = {"enabled": False}
        report = attribute_documents(base_doc, other)
        assert report.scenes["crazy"].spatial is None

    def test_dimension_mismatch_warns_and_skips(self, base_doc):
        other = copy.deepcopy(base_doc)
        other["scenes"]["crazy"]["tile_profile"]["tiles_x"] += 1
        report = attribute_documents(base_doc, other)
        assert report.scenes["crazy"].spatial is None
        assert any("dimensions differ" in w for w in report.warnings)

    def test_top_tiles_deterministic_on_ties(self):
        spatial = SpatialDelta(
            tiles_x=2, tiles_y=2,
            grids={"cycles": [5.0, -5.0, 5.0, 0.0]},
        )
        assert spatial.top_tiles("cycles", coverage=1.0) == [
            (0, 5.0), (1, -5.0), (2, 5.0),
        ]

    def test_all_zero_grid_summary(self):
        spatial = SpatialDelta(
            tiles_x=1, tiles_y=1, grids={"cycles": [0.0]}
        )
        assert spatial.top_tiles("cycles") == []
        assert "unchanged" in spatial.summary("cycles")


class TestRenderers:
    def test_json_dict_is_self_describing(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        data = report.as_dict()
        assert data["schema"] == "rbcd-attribution"
        assert data["ok"] is True
        assert data["all_zero"] is False
        assert data["ranked_causes"]
        tree = data["scenes"]["crazy"]["trees"][0]
        assert {"path", "kind", "baseline", "current", "delta"} <= set(tree)

    def test_csv_has_header_and_rows(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("scene,tree,path,depth,kind")
        assert len(lines) > 10

    def test_render_text_names_the_cause(self, base_doc):
        report = attribute_documents(base_doc, perturbed(base_doc))
        text = report.render_text()
        assert "top" in text
        assert "raster" in text
        assert "residual" in text
