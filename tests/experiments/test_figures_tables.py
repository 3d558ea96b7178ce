"""Smoke coverage for the figure builders and ASCII table renderers,
plus assertions pinned to the committed ``BENCH_rbcd.json`` document.

The figure functions are pure transforms of :class:`WorkloadRun`; one
tiny two-scene run is enough to exercise every series/column code path
without re-testing the simulator (``test_systems.py`` owns the
headline shapes).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments.bench import (
    IDENTITIES,
    _operand,
    validate_bench_document,
)
from repro.experiments.figures import (
    GEOMEAN,
    OverflowSweepResult,
    fig8a_speedup_broad,
    fig8b_energy_broad,
    fig8c_speedup_gjk,
    fig8d_energy_gjk,
    fig9a_normalized_time,
    fig9b_normalized_energy,
    fig10_time_breakdown,
    fig11_activity_factors,
    table3_overflow,
)
from repro.experiments.systems import run_workload
from repro.experiments.tables import render_comparison, render_figure
from repro.gpu.config import GPUConfig
from repro.observability.regress import compare_documents, within_tol
from repro.scenes.benchmarks import make_cap, make_crazy

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DOC = REPO_ROOT / "BENCH_rbcd.json"

FIGURE_BUILDERS = [
    fig8a_speedup_broad,
    fig8b_energy_broad,
    fig8c_speedup_gjk,
    fig8d_energy_gjk,
    fig9a_normalized_time,
    fig9b_normalized_energy,
    fig10_time_breakdown,
    fig11_activity_factors,
]


@pytest.fixture(scope="module")
def runs():
    config = GPUConfig().with_screen(64, 32)
    return [
        run_workload(make_cap(detail=1), config, frames=1),
        run_workload(make_crazy(detail=1), config, frames=1),
    ]


class TestFigureSmoke:
    @pytest.mark.parametrize(
        "builder", FIGURE_BUILDERS, ids=lambda b: b.__name__
    )
    def test_builder_produces_consistent_figure(self, runs, builder):
        data = builder(runs)
        assert data.figure and data.title
        assert data.columns[-1] == GEOMEAN
        assert set(data.columns[:-1]) == {"cap", "crazy"}
        assert data.series
        for label, values in data.series.items():
            assert set(values) == set(data.columns), label
            assert all(isinstance(v, float) for v in values.values())

    def test_values_are_finite_and_positive(self, runs):
        data = fig8a_speedup_broad(runs)
        for values in data.series.values():
            for value in values.values():
                assert value > 0.0

    def test_table3_from_sweep_results(self):
        sweep = OverflowSweepResult(
            alias="cap",
            m_values=(4, 8),
            overflow_rate={4: 0.25, 8: 0.0},
            pairs={4: [set()], 8: [{(1, 2)}]},
        )
        data = table3_overflow([sweep])
        assert "cap" in data.columns
        assert data.series


class TestTableRenderers:
    def test_render_figure_smoke(self, runs):
        text = render_figure(fig8a_speedup_broad(runs))
        assert "cap" in text and "crazy" in text
        assert GEOMEAN in text
        # Every series label appears as a row.
        assert len(text.splitlines()) >= 3

    def test_render_comparison_includes_paper_reference(self, runs):
        data = fig8a_speedup_broad(runs)
        text = render_comparison(data)
        assert GEOMEAN in text
        if data.paper_reference:
            assert "paper" in text.lower()


class TestCommittedBenchDocument:
    """The repo-root BENCH_rbcd.json is a contract artifact: the README
    points at it, and a fresh profiled quick run gates clean against it
    (``test_bench_gate.py``)."""

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads(BENCH_DOC.read_text())

    def test_document_validates(self, doc):
        # Raises on any problem, a broken identity included.
        validate_bench_document(doc)

    def test_counter_algebra_cross_checks_pass(self, doc):
        # The validator skips an identity whose operand is missing; on
        # the committed (profiled) document every one is evaluated.
        for alias, entry in doc["scenes"].items():
            for name, left, right in IDENTITIES:
                lhs = [_operand(entry, path) for path in left]
                rhs = [_operand(entry, path) for path in right]
                assert None not in lhs + rhs, (alias, name)
                assert within_tol(sum(lhs), sum(rhs)), (alias, name)

    def test_self_comparison_is_all_zero(self, doc):
        report = compare_documents(doc, copy.deepcopy(doc))
        assert report.ok
        assert not report.mismatches

    def test_covers_all_quick_scenes(self, doc):
        assert set(doc["scenes"]) == {"cap", "crazy", "sleepy", "temple"}
        for entry in doc["scenes"].values():
            assert entry["totals"]["gpu_cycles"] > 0
            assert entry["energy"]["total_j"] > 0
