"""The loadgen CLI end to end: tenant plans, bench document, exits.

Runs ``repro.experiments.loadgen.main`` in-process at tiny resolutions
and hardens the ``rbcd-serve-bench`` validator with mutation tests
against a known-good document.
"""

import copy
import json

import pytest

from repro.experiments.loadgen import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    history_line,
    main,
    plan_tenants,
    validate_serve_bench_document,
)
from repro.gpu.config import GPUConfig
from repro.scenes.benchmarks import BENCHMARKS

TINY = ["--width", "96", "--height", "64", "--detail", "1"]
# Watchdog thresholds that cannot fire at smoke resolutions (the
# "crazy" scene legitimately breaches the paper's 1% activity envelope
# when the screen is this small).
NO_ALERTS = [
    "--max-activity-ratio", "-1",
    "--max-overflow-rate", "-1",
    "--max-joules-per-frame", "-1",
]
SMALL = TINY + NO_ALERTS + ["--tenants", "2", "--frames", "2"]


class TestTenantPlans:
    def test_round_robin_scenes_and_stable_ids(self):
        plans = plan_tenants(6, detail=1, seed=3)
        assert [p.scene for p in plans] == [
            BENCHMARKS[i % len(BENCHMARKS)] for i in range(6)
        ]
        assert [p.tenant for p in plans] == [
            f"t{i:02d}-{plans[i].scene}" for i in range(6)
        ]

    def test_same_seed_same_phases(self):
        first = plan_tenants(5, detail=1, seed=11)
        again = plan_tenants(5, detail=1, seed=11)
        other = plan_tenants(5, detail=1, seed=12)
        assert [p.phase for p in first] == [p.phase for p in again]
        assert [p.phase for p in first] != [p.phase for p in other]

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            plan_tenants(0, detail=1, seed=0)

    def test_frame_at_is_deterministic(self):
        config = GPUConfig().with_screen(96, 64)
        plan = plan_tenants(1, detail=1, seed=0)[0]
        a = plan.frame_at(3, config)
        b = plan.frame_at(3, config)
        assert len(a.draws) == len(b.draws)


class TestClosedLoopCli:
    def test_quick_run_serves_every_frame(self, capsys):
        assert main(SMALL + ["--fail-on-alert"]) == 0
        out = capsys.readouterr().out
        assert "served 4 frames for 2 tenants in 2 batches" in out
        assert "http" not in out

    def test_selfcheck_gated_sections_are_bit_identical(self, capsys):
        assert main(SMALL + ["--selfcheck"]) == 0
        assert "selfcheck OK" in capsys.readouterr().out

    def test_document_round_trips_through_check(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        assert main(SMALL + ["--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == SCHEMA_NAME
        assert doc["version"] == SCHEMA_VERSION
        assert doc["workload"]["frames_served"] == 4
        assert len(doc["workload"]["tenants"]) == 2
        # v3 carries no host-time block: every field is deterministic.
        assert set(doc) == {"schema", "version", "config", "workload"}
        validate_serve_bench_document(doc)
        assert main(["--check", str(out_path)]) == 0
        assert "valid rbcd-serve-bench" in capsys.readouterr().out

    def test_default_envelope_alerts_fail_the_run_when_asked(self, capsys):
        # Default watchdog bounds + the crazy scene at 96x64: alerts
        # fire, frames are still served (closed loop admits them), and
        # --fail-on-alert turns that into exit 1.
        code = main(TINY + [
            "--tenants", "2", "--frames", "2",
            "--max-joules-per-frame", "1e-12", "--fail-on-alert",
        ])
        assert code == 1
        assert "alert(s)" in capsys.readouterr().out


class TestHistoryAppend:
    def test_appended_line_round_trips_history_line(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        history = tmp_path / "hist" / "HISTORY.ndjson"
        argv = SMALL + [
            "--output", str(out_path), "--append-history", str(history),
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # appends, never truncates
        assert "appended history line to" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line == history_line(doc)
        record = json.loads(lines[0])
        assert record["schema"] == SCHEMA_NAME  # disambiguates bench lines
        assert record["version"] == SCHEMA_VERSION
        assert record["config"]["tenants"] == 2
        assert record["workload"]["frames_served"] == 4
        assert record["workload"]["pairs_total"] == sum(
            t["pairs_total"] for t in doc["workload"]["tenants"]
        )
        assert set(record) == {"schema", "version", "config", "workload"}


class TestFlightRecorderCli:
    def test_forced_slo_breach_writes_exactly_one_dump(
        self, capsys, tmp_path
    ):
        """The black-box flow end to end: an impossibly tight p95 SLO
        breaches on the first window, the closed loop still serves
        every frame, the recorder writes exactly one valid dump, and
        every alert in it replay-verifies."""
        from repro.experiments.postmortem import main as postmortem_main

        dump_dir = tmp_path / "black-box"
        code = main(SMALL + [
            "--max-frame-ms", "1e-6", "--fail-on-alert",
            "--flight-recorder", str(dump_dir),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "served 4 frames" in captured.out  # breach did not reject
        assert "loadgen: FAILING" in captured.err
        dumps = sorted(dump_dir.glob("postmortem-*.json"))
        assert len(dumps) == 1  # dump storm protection: one per run
        assert str(dumps[0]) in captured.err
        assert postmortem_main([str(dumps[0]), "--check"]) == 0
        assert postmortem_main([str(dumps[0])]) == 0
        out = capsys.readouterr().out
        assert "frame-latency-slo" in out
        assert "reproduced" in out
        # The machine-readable timeline: the recomputed window stats of
        # every recorded alert equal the recorded ones exactly.
        assert postmortem_main([str(dumps[0]), "--format", "json"]) == 0
        timeline = json.loads(capsys.readouterr().out)
        assert timeline["ok"] is True
        assert timeline["verdicts"], "no alerts were cross-checked"
        for verdict in timeline["verdicts"]:
            assert verdict["status"] == "reproduced", verdict

    def test_healthy_run_writes_no_dump(self, tmp_path):
        dump_dir = tmp_path / "black-box"
        code = main(SMALL + [
            "--fail-on-alert", "--flight-recorder", str(dump_dir),
        ])
        assert code == 0
        assert not list(dump_dir.glob("*.json")) if dump_dir.exists() else True


class TestQuickPreset:
    @pytest.mark.parametrize("flag", ["--width", "--height", "--detail"])
    def test_quick_refuses_an_explicit_workload_flag(self, flag, capsys):
        # --quick used to override the flag silently.
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", flag, "2"] + NO_ALERTS)
        assert excinfo.value.code == 2
        assert f"{flag} cannot be combined with --quick" in (
            capsys.readouterr().err
        )

    def test_quick_sets_the_preset(self, tmp_path):
        out_path = tmp_path / "serve.json"
        assert main(["--quick", "--tenants", "1", "--frames", "1",
                     "--output", str(out_path)] + NO_ALERTS) == 0
        config = json.loads(out_path.read_text())["config"]
        assert (config["width"], config["height"], config["detail"]) == (
            160, 96, 1,
        )


def good_document():
    """A hand-built document the validator accepts (asserted below)."""
    def tenant(i, scene, pairs):
        return {
            "tenant": f"t{i:02d}-{scene}",
            "scene": scene,
            "phase": 3 * i,
            "frames": 2,
            "pairs_total": pairs,
            "counters": {"gpu.frames": 2.0, "energy.total_j": 0.25},
            "serve": {
                "serve.frames_submitted": 2,
                "serve.frames_completed": 2,
                "serve.frames_rejected": 0,
            },
        }

    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": {
            "tenants": 2, "frames": 2, "width": 96, "height": 64,
            "detail": 1, "window": 8,
            "max_pending": 8, "seed": 0, "max_frame_ms": 100.0,
        },
        "workload": {
            "frames_served": 4,
            "batches": 2,
            "tenants": [tenant(0, "cap", 1), tenant(1, "crazy", 4)],
            "global_counters": {"gpu.frames": 4.0},
        },
    }


class TestDocumentValidator:
    def test_accepts_known_good_document(self):
        validate_serve_bench_document(good_document())

    @pytest.mark.parametrize("mutate,expected", [
        (lambda d: d.__setitem__("schema", "rbcd-bench"), "schema"),
        (lambda d: d.__setitem__("version", 1), "version"),
        (lambda d: d["config"].__setitem__("tenants", 0), "config.tenants"),
        (lambda d: d["config"].__setitem__("frames", True), "config.frames"),
        (lambda d: d["workload"].__setitem__("frames_served", -1),
         "frames_served"),
        (lambda d: d["workload"]["tenants"].pop(), "expected 2 records"),
        (lambda d: d["workload"]["tenants"].__setitem__(
            1, copy.deepcopy(d["workload"]["tenants"][0])),
         "duplicate tenant"),
        (lambda d: d["workload"]["tenants"][0].__setitem__("scene", "nope"),
         "unknown scene"),
        (lambda d: d["workload"]["tenants"][0].__setitem__("frames", 3),
         "expected config.frames"),
        (lambda d: d["workload"]["tenants"][0]["serve"].__setitem__(
            "serve.frames_rejected", 1), "must admit every frame"),
        (lambda d: d["workload"]["tenants"][0].__setitem__("counters", {}),
         "counters"),
        (lambda d: d["workload"]["tenants"][0]["counters"].__setitem__(
            "gpu.frames", "two"), "expected a number"),
        (lambda d: d["workload"].__setitem__("global_counters", {}),
         "global_counters"),
        (lambda d: d["workload"]["tenants"][0].__setitem__("phase", 0.5),
         "expected an int"),
    ])
    def test_rejects_mutations(self, mutate, expected):
        doc = good_document()
        mutate(doc)
        with pytest.raises(ValueError, match="invalid rbcd-serve-bench") as e:
            validate_serve_bench_document(doc)
        assert expected in str(e.value)

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            validate_serve_bench_document([1, 2, 3])

    def test_check_flag_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = good_document()
        doc["workload"]["tenants"] = []
        bad.write_text(json.dumps(doc))
        assert main(["--check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"FAIL {bad}: invalid rbcd-serve-bench")

    def test_check_flag_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["--check", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"FAIL {missing}:")

    def test_check_flag_rejects_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--check", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"FAIL {bad}:")

    def test_check_flag_rejects_v2_document(self, tmp_path, capsys):
        old = good_document()
        old["version"] = 2
        old["timing"] = {"wall_s": 0.5}
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(old))
        assert main(["--check", str(path)]) == 1
        assert "expected one of (3,), got 2" in capsys.readouterr().err
