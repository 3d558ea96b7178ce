"""The loadgen CLI end to end: tenant plans, bench document, exits.

Runs ``repro.experiments.loadgen.main`` in-process at tiny resolutions
— closed-loop, open-loop and the saturation ramp — and hardens the
``rbcd-serve-bench`` validator with mutation tests against a
known-good document.
"""

import copy
import json
import threading
import time
from urllib.request import urlopen

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
from repro.observability.netutil import read_port_file
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
        assert "serving http://127.0.0.1:" in out
        assert "served 4 frames for 2 tenants in 2 batches" in out

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
        assert doc["saturation"] is None
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

    def test_metrics_endpoint_is_scrapable_mid_run(self, tmp_path):
        port_file = tmp_path / "port"
        scraped = {}

        def scrape():
            # The port file lands before the workload starts, so poll
            # until the served tenants' labelled series show up.
            port = read_port_file(port_file, timeout_s=30.0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10
                ) as response:
                    scraped["status"] = response.status
                    scraped["body"] = response.read().decode("utf-8")
                if 'tenant="t01-crazy"' in scraped["body"]:
                    return
                time.sleep(0.05)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            code = main(SMALL + [
                "--port-file", str(port_file), "--linger", "2.0",
            ])
        finally:
            scraper.join(timeout=30.0)
        assert code == 0
        assert scraped["status"] == 200
        assert 'tenant="t00-cap"' in scraped["body"]
        assert 'tenant="t01-crazy"' in scraped["body"]


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
        assert record["saturation"] is None

    def test_history_line_summarizes_saturation(self):
        doc = good_document()
        record = json.loads(history_line(doc))
        assert record["saturation"] == {
            "max_sustained_fps": 30.0, "steps": 2,
        }


class TestFlightRecorderCli:
    def test_forced_slo_breach_writes_exactly_one_dump(
        self, capsys, tmp_path
    ):
        """The CI postmortem-smoke recipe: an impossibly tight p95 SLO
        breaches on the first window, the closed loop still serves
        every frame, and the recorder writes exactly one valid dump."""
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

    def test_healthy_run_writes_no_dump(self, tmp_path):
        dump_dir = tmp_path / "black-box"
        code = main(SMALL + [
            "--fail-on-alert", "--flight-recorder", str(dump_dir),
        ])
        assert code == 0
        assert not list(dump_dir.glob("*.json")) if dump_dir.exists() else True


class TestOpenLoopAndSaturationCli:
    def test_open_loop_reports_throughput(self, capsys):
        assert main(SMALL + ["--rate", "50"]) == 0
        out = capsys.readouterr().out
        assert "open-loop at 50 Hz/tenant" in out
        assert "fps aggregate" in out

    def test_saturation_writes_a_valid_document(self, capsys, tmp_path):
        out_path = tmp_path / "saturation.json"
        code = main(SMALL + [
            "--saturation", "--rates", "5,10",
            "--max-frame-ms", "10000",
            "--output", str(out_path),
        ])
        assert code == 0
        assert "saturation: max sustained" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        validate_serve_bench_document(doc)
        steps = doc["saturation"]["steps"]
        assert 1 <= len(steps) <= 2
        assert doc["saturation"]["max_sustained_fps"] >= 0.0

    def test_saturation_requires_the_slo(self, capsys):
        assert main(SMALL + ["--saturation"]) == 2
        assert "--max-frame-ms" in capsys.readouterr().err

    def test_saturation_rejects_open_loop_rate(self, capsys):
        code = main(SMALL + [
            "--saturation", "--max-frame-ms", "100", "--rate", "10",
        ])
        assert code == 2
        assert "drop --rate" in capsys.readouterr().err

    def test_rates_must_ascend(self, capsys):
        code = main(SMALL + [
            "--saturation", "--max-frame-ms", "100",
            "--rates", "20,10",
        ])
        assert code == 2
        assert "ascending" in capsys.readouterr().err


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
        "timing": {"wall_s": 0.5},
        "saturation": {
            "steps": [
                {"offered_rate_hz": 10.0, "achieved_fps": 30.0,
                 "frames_served": 4, "frames_rejected": 0,
                 "p95_wall_ms_max": 5.0, "slo_alerts": 0,
                 "sustained": True},
                {"offered_rate_hz": 20.0, "achieved_fps": 25.0,
                 "frames_served": 3, "frames_rejected": 1,
                 "p95_wall_ms_max": 50.0, "slo_alerts": 1,
                 "sustained": False},
            ],
            "max_sustained_fps": 30.0,
        },
    }


class TestDocumentValidator:
    def test_accepts_known_good_document(self):
        validate_serve_bench_document(good_document())

    def test_accepts_null_saturation(self):
        doc = good_document()
        doc["saturation"] = None
        validate_serve_bench_document(doc)

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
        (lambda d: d["timing"].__setitem__("wall_s", -0.1), "timing.wall_s"),
        (lambda d: d["saturation"]["steps"][1].__setitem__(
            "offered_rate_hz", 10.0), "strictly increasing"),
        (lambda d: d["saturation"]["steps"][0].__setitem__(
            "sustained", False), "must end the ramp"),
        (lambda d: d["saturation"].__setitem__("max_sustained_fps", 99.0),
         "max over sustained steps"),
        (lambda d: d["saturation"].__setitem__("steps", []),
         "non-empty list"),
        (lambda d: d["saturation"]["steps"][0].__setitem__(
            "slo_alerts", 0.5), "expected an int"),
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

    def test_check_flag_rejects_invalid_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = good_document()
        doc["workload"]["tenants"] = []
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="invalid rbcd-serve-bench"):
            main(["--check", str(bad)])
