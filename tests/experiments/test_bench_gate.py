"""End-to-end regression gating through the bench CLI.

The acceptance contract of the gate: a fresh run against a baseline of
the *same tree* exits 0, and a run against a baseline with any value
changed — in either direction — exits non-zero.  A change in the model
is simulated by perturbing the stored baseline; the perturbation keeps
the model's identities (the validator refuses a document that breaks
one, before any value is compared), so it scales every counter and
energy block an identity ties to the values it changes.
"""

import copy
import json

import pytest

from pathlib import Path

from repro.experiments.bench import (
    IDENTITIES,
    gate_against_baseline,
    main,
    run_bench,
    validate_bench_document,
)
from repro.observability.regress import compare_documents

REPO_ROOT = Path(__file__).resolve().parents[2]
QUICK_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_quick.json"
PROFILED_DOCUMENT = REPO_ROOT / "BENCH_rbcd.json"

IDENTITY_NAMES = [name for name, _, _ in IDENTITIES]

# The counters the identities tie a scene's gpu_cycles to.
CYCLE_COUNTERS = (
    "gpu.gpu_cycles",
    "gpu.geometry.geometry_cycles",
    "gpu.raster.raster_pipeline_cycles",
)


@pytest.fixture(scope="module")
def bench_doc():
    """One real tiny document, shared by every gate test."""
    return run_bench(["crazy"], width=64, height=32, frames=1, detail=1,
                     quick=False)


@pytest.fixture(scope="module")
def profiled_doc():
    return run_bench(["crazy"], width=64, height=32, frames=1, detail=1,
                     tile_profile=True)


@pytest.fixture()
def baseline_file(tmp_path, bench_doc):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(bench_doc))
    return path


def scale_cycles(scene, factor, keep_identities=True):
    """Scale a scene's frame and stage cycles (and, to keep the
    identities, the cycle counters they equal)."""
    scene["totals"]["gpu_cycles"] *= factor
    for record in scene["stages"].values():
        record["cycles"] *= factor
    if keep_identities:
        for key in CYCLE_COUNTERS:
            scene["counters"][key] *= factor


def hollow_baseline(keep_identities=True):
    """The committed quick baseline with every pair and case count
    zeroed, one fragment per scene, and half the cycles and joules."""
    doc = json.loads(QUICK_BASELINE.read_text())
    for scene in doc["scenes"].values():
        totals = scene["totals"]
        totals.update(colliding_pairs=0, pair_records_written=0,
                      fragments_produced=1)
        for key in scene["cases"]:
            scene["cases"][key] = 0
        scale_cycles(scene, 0.5, keep_identities)
        scene["energy"]["total_j"] /= 2
        if keep_identities:
            scene["counters"]["energy.total_j"] /= 2
            for block in (scene["energy"]["gpu"], scene["energy"]["rbcd"]):
                for key in block:
                    block[key] /= 2
    return doc


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
        scale_cycles(fast["scenes"]["crazy"], 0.9)
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast))

        assert run_gate(tmp_path, path) == 1
        assert "totals.gpu_cycles" in capsys.readouterr().out

    def test_without_gate_flag_regressions_are_informational(
            self, tmp_path, bench_doc, capsys):
        fast = copy.deepcopy(bench_doc)
        scale_cycles(fast["scenes"]["crazy"], 0.9)
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
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps(hollow_baseline()))
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

    def test_committed_profiled_document_gates_clean(self, tmp_path, capsys):
        """The committed tile-profiled document is current: a fresh
        profiled quick run matches every value in it."""
        code = main([
            "--quick", "--tile-profile",
            "--output", str(tmp_path / "fresh.json"),
            "--baseline", str(PROFILED_DOCUMENT), "--gate",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 changed" in out

    def test_gate_failure_emits_greppable_line(self, tmp_path, bench_doc,
                                               capsys):
        fast = copy.deepcopy(bench_doc)
        scale_cycles(fast["scenes"]["crazy"], 0.9)
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast))
        assert run_gate(tmp_path, path) == 1
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("GATE-FAIL"))
        assert "scene=crazy" in line
        assert "metric=" in line and "ratio=" in line

    def test_refused_baseline_is_not_a_value_change(self, tmp_path, capsys):
        # Without --gate only a value change is informational: a
        # baseline that parses but is refused as invalid, and one that
        # cannot be loaded at all, both exit 1, as they do with --gate.
        for name, content in (("junk.json", json.dumps({"schema": "junk"})),
                              ("broken.json", "{not json")):
            path = tmp_path / name
            path.write_text(content)
            code = main([
                "--scenes", "crazy", "--width", "64", "--height", "32",
                "--frames", "1", "--detail", "1",
                "--output", str(tmp_path / "fresh.json"),
                "--baseline", str(path),
            ])
            assert code == 1, name
            captured = capsys.readouterr()
            assert "0 values checked" in captured.out
            assert "gate: baseline refused" in captured.err
            assert captured.err.count("GATE-FAIL error=") == 1
            assert "values changed" not in captured.out + captured.err

    def test_refusal_is_one_gate_fail_line(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"schema": "junk"}))
        assert run_gate(tmp_path, path) == 1
        err = capsys.readouterr().err.splitlines()
        i = next(i for i, l in enumerate(err) if l.startswith("GATE-FAIL"))
        assert err[i].startswith(
            'GATE-FAIL error="baseline document invalid: schema: '
        )
        assert err[i].endswith('"') and err[i].count('"') == 2
        assert err[i + 1] == "gate: FAILED"


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


def _bump(block, key, by):
    block[key] += by


# One hand edit of a profiled scene per identity, in IDENTITIES order;
# each breaks that identity and no other.
BREAK_ONE_IDENTITY = {
    "gpu-cycles-counter":
        lambda s: _bump(s["counters"], "gpu.gpu_cycles", 1),
    "gpu-cycles-split":
        lambda s: _bump(s["counters"], "gpu.geometry.geometry_cycles", 1),
    "energy-counter":
        lambda s: _bump(s["counters"], "energy.total_j", 1e-6),
    "energy-split": lambda s: (
        _bump(s["energy"], "total_j", 1e-6),
        _bump(s["counters"], "energy.total_j", 1e-6),
    ),
    "gpu-energy-sum": lambda s: _bump(s["energy"]["gpu"], "fragment_j", 1e-6),
    "rbcd-energy-sum": lambda s: _bump(s["energy"]["rbcd"], "static_j", 1e-6),
    "tile-stage-split":
        lambda s: _bump(s["stages"]["rbcd.zeb-insert"], "cycles", 1),
    "tile-cycles-grid": lambda s: _bump(s["tile_profile"]["cycles"], 0, 1),
    "tile-energy-grid":
        lambda s: _bump(s["tile_profile"]["energy_j"], 0, 1e-6),
}


def hand_broken(identity_index, mutate):
    def build(profiled_doc, bench_doc):
        doc = copy.deepcopy(profiled_doc)
        mutate(doc["scenes"]["crazy"])
        return doc, [IDENTITY_NAMES[identity_index]]
    return build


def identity_breaking_slowdown(profiled_doc, bench_doc):
    doc = copy.deepcopy(bench_doc)
    scale_cycles(doc["scenes"]["crazy"], 0.9, keep_identities=False)
    return doc, IDENTITY_NAMES[:2]


def identity_breaking_hollow(profiled_doc, bench_doc):
    return hollow_baseline(keep_identities=False), IDENTITY_NAMES[:4]


REFUSED = {
    "slowdown-mutant": identity_breaking_slowdown,
    "hollow-mutant": identity_breaking_hollow,
    **{
        name: hand_broken(i, mutate)
        for i, (name, mutate) in enumerate(BREAK_ONE_IDENTITY.items())
    },
}


class TestIdentityRefusal:
    """A document that breaks one of the model's identities never gets
    as far as a value comparison: ``--check`` and the gate both refuse
    it and name the identity."""

    def test_every_identity_has_a_hand_broken_case(self):
        assert len(BREAK_ONE_IDENTITY) == len(IDENTITIES)

    @pytest.mark.parametrize("case", REFUSED)
    def test_check_and_gate_refuse_and_name_the_identity(
            self, case, tmp_path, profiled_doc, bench_doc, capsys):
        doc, broken = REFUSED[case](profiled_doc, bench_doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))

        assert main(["--check", str(path)]) == 1
        err = capsys.readouterr().err
        for identity in broken:
            assert f": breaks {identity}: " in err, identity
        assert err.count(": breaks ") == (
            len(broken) * len(doc["scenes"])
        )

        assert run_gate(tmp_path, path) == 1
        captured = capsys.readouterr()
        for identity in broken:
            assert f": breaks {identity}: " in captured.out, identity
        assert "0 values checked" in captured.out
        line = next(l for l in captured.err.splitlines()
                    if l.startswith("GATE-FAIL"))
        assert line.startswith(
            'GATE-FAIL error="baseline document invalid: scenes.'
        )
        assert ": breaks " in line


@pytest.mark.parametrize("relpath", [
    "BENCH_rbcd.json", "benchmarks/baselines/BENCH_quick.json",
])
def test_committed_document_self_compares_to_zero(relpath):
    """Each committed bench document keeps every identity, and compared
    against itself the gate checks every value and changes none."""
    doc = json.loads((REPO_ROOT / relpath).read_text())
    validate_bench_document(doc)
    report = compare_documents(doc, copy.deepcopy(doc))
    assert report.ok
    assert not report.errors
    assert not report.mismatches
    assert report.checked > 0
