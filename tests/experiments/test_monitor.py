"""The monitor CLI end to end: frame stream, live HTTP endpoints, exits.

Runs ``repro.experiments.monitor.main`` in-process against real scenes
at tiny resolutions and scrapes the live endpoint over actual HTTP —
including the acceptance-criterion flow where a tripped watchdog flips
``/healthz`` to 503 mid-stream.
"""

import json
import threading
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.core import RBCDSystem
from repro.experiments.monitor import main, run_stream
from repro.gpu.config import GPUConfig
from repro.observability.live import LiveMonitor, MetricsServer, WatchdogRule
from repro.observability.openmetrics import parse_openmetrics, validate_openmetrics
from repro.scenes.benchmarks import workload_by_alias

TINY = ["--width", "96", "--height", "64", "--detail", "1"]


def fetch(url):
    try:
        with urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except HTTPError as err:
        return err.code, err.read().decode("utf-8")


class TestRunStream:
    def test_renders_requested_frames_and_loops_animation(self):
        config = GPUConfig().with_screen(96, 64)
        workload = workload_by_alias("cap", detail=1)
        monitor = LiveMonitor(window=8, rules=[])
        seen = []
        with RBCDSystem(config=config, observers=[monitor]) as system:
            # More frames than one animation loop => t wraps around.
            rendered = run_stream(
                system, workload, frames=workload.default_frames + 2,
                on_frame=lambda i, result: seen.append(result),
            )
        assert rendered == workload.default_frames + 2
        assert monitor.frames == rendered
        assert len(seen) == rendered
        assert all(r.report is not None for r in seen)


class TestMonitorCli:
    def test_healthy_quick_run_exits_zero(self, capsys, tmp_path):
        port_file = tmp_path / "port"
        code = main(TINY + [
            "--scene", "cap", "--frames", "3",
            "--port-file", str(port_file), "--fail-on-alert",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving http://127.0.0.1:" in out
        assert "health ok, 0 alert(s)" in out
        assert port_file.read_text().strip().isdigit()

    def test_quick_preset_overrides_resolution(self, capsys):
        code = main(["--quick", "--frames", "1"])
        assert code == 0
        assert "rendered 1 frames" in capsys.readouterr().out

    def test_fail_on_alert_exits_nonzero(self, capsys):
        # An impossible energy budget trips the watchdog on frame 0.
        code = main(TINY + [
            "--scene", "cap", "--frames", "2",
            "--max-joules-per-frame", "1e-12", "--fail-on-alert",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "health failing" in out
        assert "energy-budget" in out

    def test_alerts_without_flag_still_exit_zero(self, capsys):
        code = main(TINY + [
            "--scene", "cap", "--frames", "2",
            "--max-joules-per-frame", "1e-12",
        ])
        assert code == 0
        assert "1 alert(s)" in capsys.readouterr().out

    def test_negative_threshold_disables_rule(self, capsys):
        code = main(TINY + [
            "--scene", "cap", "--frames", "2",
            "--max-joules-per-frame", "-1",
            "--max-activity-ratio", "-1",
            "--max-overflow-rate", "-1",
            "--fail-on-alert",
        ])
        assert code == 0

    def test_fail_on_alert_prints_actionable_diagnostics(self, capsys):
        """A failing exit names the breaching rule, its window stats,
        and nothing about a dump when no recorder was attached."""
        code = main(TINY + [
            "--scene", "cap", "--frames", "2",
            "--max-joules-per-frame", "1e-12", "--fail-on-alert",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "monitor: FAILING" in err
        assert "breached rule 'energy-budget'" in err
        assert "window.energy.joules_per_frame" in err
        assert "gt threshold 1e-12" in err
        # The full window state behind the verdict is on stderr too.
        assert "window window.frames = 2" in err
        assert "post-mortem dump" not in err

    def test_fail_on_alert_with_flight_recorder_names_the_dump(
        self, capsys, tmp_path
    ):
        """End to end: breach -> exit 1 -> one dump, path on stderr,
        and the named file is a valid, inspectable post-mortem."""
        from repro.experiments.postmortem import main as postmortem_main

        dump_dir = tmp_path / "black-box"
        code = main(TINY + [
            "--scene", "cap", "--frames", "2",
            "--max-joules-per-frame", "1e-12", "--fail-on-alert",
            "--flight-recorder", str(dump_dir),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "post-mortem dump: " in err
        assert "inspect with: python -m repro.experiments.postmortem" in err
        (dump,) = sorted(dump_dir.glob("postmortem-*.json"))
        assert str(dump) in err
        assert postmortem_main([str(dump), "--check"]) == 0
        assert postmortem_main([str(dump)]) == 0
        out = capsys.readouterr().out
        assert "alert cross-checks:" in out
        assert "energy-budget @ frame 0: reproduced" in out


class TestLiveEndpointEndToEnd:
    """Scrape the endpoint over HTTP while a real stream renders."""

    def stream_with_server(self, rules, frames=4):
        config = GPUConfig().with_screen(96, 64)
        workload = workload_by_alias("cap", detail=1)
        monitor = LiveMonitor(window=8, rules=rules)
        scrapes = {}
        with MetricsServer(monitor) as server:
            with RBCDSystem(config=config, observers=[monitor]) as system:
                run_stream(system, workload, frames=frames)
            scrapes["metrics"] = fetch(server.url + "/metrics")
            scrapes["healthz"] = fetch(server.url + "/healthz")
            scrapes["snapshot"] = fetch(server.url + "/snapshot.json")
        return monitor, scrapes

    def test_healthy_stream_serves_valid_openmetrics(self):
        monitor, scrapes = self.stream_with_server(rules=[])
        status, text = scrapes["metrics"]
        assert status == 200
        assert validate_openmetrics(text) > 0
        families = parse_openmetrics(text)
        assert families["repro_frames_observed"]["samples"][0][2] == 4.0
        # Real frames produced real RBCD work.
        insertions = families["repro_gpu_rbcd_zeb_insertions"]["samples"]
        assert insertions[0][2] > 0

        status, body = scrapes["healthz"]
        assert status == 200 and json.loads(body)["status"] == "ok"

        status, body = scrapes["snapshot"]
        snapshot = json.loads(body)
        assert snapshot["frames"] == 4
        assert snapshot["window"]["window.rbcd.activity_ratio"] > 0.0

    def test_tripped_watchdog_flips_healthz_to_503(self):
        # ge 0.0 over a rate that's always >= 0: trips on frame 0.
        rules = [
            WatchdogRule(
                "canary", "window.zeb.overflow_rate", "ge", 0.0,
                description="always trips",
            )
        ]
        monitor, scrapes = self.stream_with_server(rules=rules)
        status, body = scrapes["healthz"]
        assert status == 503
        health = json.loads(body)
        assert health["status"] == "failing"
        assert health["active_alerts"] == ["canary"]
        families = parse_openmetrics(scrapes["metrics"][1])
        assert families["repro_health"]["samples"][0][2] == 0.0
        assert len(monitor.alerts) == 1

    def test_healthz_recovers_to_200_mid_stream(self):
        """The health endpoint tracks breach entry AND exit live."""
        config = GPUConfig().with_screen(96, 64)
        workload = workload_by_alias("cap", detail=1)
        # Trips only while the window holds a single frame, so it
        # recovers as soon as the second frame lands.
        rules = [
            WatchdogRule("warmup", "window.frames", "le", 1.0)
        ]
        monitor = LiveMonitor(window=8, rules=rules)
        statuses = []
        with MetricsServer(monitor) as server:
            with RBCDSystem(config=config, observers=[monitor]) as system:
                run_stream(
                    system, workload, frames=3,
                    on_frame=lambda i, r: statuses.append(
                        fetch(server.url + "/healthz")[0]
                    ),
                )
        assert statuses[0] == 503
        assert statuses[-1] == 200
        assert len(monitor.alerts) == 1
        assert monitor.healthy
