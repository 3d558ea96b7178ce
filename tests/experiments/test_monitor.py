"""The monitor CLI end to end: frame stream, live monitor state, exits.

Runs ``repro.experiments.monitor.main`` in-process against real scenes
at tiny resolutions, and reads a live monitor mid-stream — including
the flow where a tripped watchdog turns the stream unhealthy and a
recovered one turns it healthy again.
"""

from repro.core import RBCDSystem
from repro.experiments.monitor import main, run_stream
from repro.gpu.config import GPUConfig
from repro.observability.live import LiveMonitor, WatchdogRule
from repro.scenes.benchmarks import workload_by_alias

TINY = ["--width", "96", "--height", "64", "--detail", "1"]


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
    def test_healthy_quick_run_exits_zero(self, capsys):
        code = main(TINY + [
            "--scene", "cap", "--frames", "3", "--fail-on-alert",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "health ok, 0 alert(s)" in out
        assert "http" not in out

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


class TestLiveStateEndToEnd:
    """Read the monitor in process while a real stream renders."""

    def stream(self, monitor, frames=4, on_frame=None):
        config = GPUConfig().with_screen(96, 64)
        workload = workload_by_alias("cap", detail=1)
        with RBCDSystem(config=config, observers=[monitor]) as system:
            run_stream(system, workload, frames=frames, on_frame=on_frame)
        return monitor

    def test_healthy_stream_reports_real_rbcd_work(self):
        monitor = self.stream(LiveMonitor(window=8, rules=[]))
        assert monitor.frames == 4
        assert monitor.healthy
        # Real frames produced real RBCD work.
        assert monitor.totals()["gpu.rbcd.zeb_insertions"] > 0
        assert monitor.window_values()["window.rbcd.activity_ratio"] > 0.0

    def test_tripped_watchdog_turns_the_stream_unhealthy(self):
        # ge 0.0 over a rate that's always >= 0: trips on frame 0.
        rules = [
            WatchdogRule(
                "canary", "window.zeb.overflow_rate", "ge", 0.0,
                description="always trips",
            )
        ]
        monitor = self.stream(LiveMonitor(window=8, rules=rules))
        assert not monitor.healthy
        assert monitor.active_alerts == ["canary"]
        assert len(monitor.alerts) == 1

    def test_health_recovers_mid_stream(self):
        """Health tracks breach entry AND exit live."""
        # Trips only while the window holds a single frame, so it
        # recovers as soon as the second frame lands.
        monitor = LiveMonitor(
            window=8, rules=[WatchdogRule("warmup", "window.frames", "le", 1.0)]
        )
        health = []
        self.stream(
            monitor, frames=3,
            on_frame=lambda i, r: health.append(monitor.healthy),
        )
        assert health == [False, True, True]
        assert len(monitor.alerts) == 1
        assert monitor.healthy
