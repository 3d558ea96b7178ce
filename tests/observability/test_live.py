"""LiveMonitor: snapshots, windows, watchdogs and in-process readers.

Frames here are synthetic :class:`GPUStats` / :class:`FrameEnergyReport`
objects so every derived value is known in closed form; the end-to-end
tests over real rendered frames live in
``tests/experiments/test_monitor.py`` and
``tests/integration/test_live_differential.py``.
"""

import threading

import pytest

from repro.energy.gpu_power import GPUEnergyBreakdown
from repro.energy.report import FrameEnergyReport
from repro.gpu.stats import GPUStats
from repro.observability.live import (
    PAPER_ACTIVITY_ENVELOPE,
    Alert,
    LiveMonitor,
    WatchdogRule,
    aggregate_window_values,
    default_rules,
)


def make_stats(
    gpu_cycles=1000.0,
    rbcd_cycles=5.0,
    zeb_insertions=100,
    zeb_overflow_events=0,
    zeb_lists_analyzed=50,
    ff_stack_overflows=0,
    collision_pairs_emitted=3,
) -> GPUStats:
    return GPUStats(
        gpu_cycles=gpu_cycles,
        rbcd_cycles=rbcd_cycles,
        zeb_insertions=zeb_insertions,
        zeb_overflow_events=zeb_overflow_events,
        zeb_lists_analyzed=zeb_lists_analyzed,
        ff_stack_overflows=ff_stack_overflows,
        collision_pairs_emitted=collision_pairs_emitted,
    )


def make_energy(total_j=0.001, delay_s=0.002) -> FrameEnergyReport:
    return FrameEnergyReport(
        gpu=GPUEnergyBreakdown(static_j=total_j), delay_s=delay_s
    )


class TestWatchdogRule:
    def test_validates_op_and_min_frames(self):
        with pytest.raises(ValueError):
            WatchdogRule("r", "m", "between", 1.0)
        with pytest.raises(ValueError):
            WatchdogRule("r", "m", "gt", 1.0, min_frames=0)

    def test_not_breached_before_min_frames_or_without_metric(self):
        rule = WatchdogRule("r", "m", "gt", 1.0, min_frames=3)
        assert not rule.breached({"m": 5.0}, frames=2)
        assert rule.breached({"m": 5.0}, frames=3)
        assert not rule.breached({}, frames=10)

    @pytest.mark.parametrize("op,value,trips", [
        ("gt", 2.0, True), ("gt", 1.0, False),
        ("ge", 1.0, True), ("ge", 0.9, False),
        ("lt", 0.5, True), ("lt", 1.0, False),
        ("le", 1.0, True), ("le", 1.1, False),
    ])
    def test_operators(self, op, value, trips):
        rule = WatchdogRule("r", "m", op, 1.0)
        assert rule.breached({"m": value}, frames=1) is trips


class TestDefaultRules:
    def test_stock_set_guards_the_paper_envelope(self):
        rules = {r.name: r for r in default_rules()}
        assert rules["rbcd-activity-envelope"].threshold == (
            PAPER_ACTIVITY_ENVELOPE
        )
        assert "zeb-overflow-rate" in rules
        assert "ffstack-overflow-rate" in rules
        assert "energy-budget" in rules
        assert "frame-latency-slo" not in rules  # opt-in

    def test_none_drops_a_rule_and_latency_is_opt_in(self):
        names = {r.name for r in default_rules(
            max_activity_ratio=None, max_frame_ms=50.0,
        )}
        assert "rbcd-activity-envelope" not in names
        assert "frame-latency-slo" in names


class TestLiveMonitorIngestion:
    def test_snapshot_fields_are_closed_form(self):
        monitor = LiveMonitor(window=8)
        snap = monitor.observe_frame(
            make_stats(gpu_cycles=1000.0, rbcd_cycles=5.0,
                       zeb_insertions=100, zeb_overflow_events=4,
                       zeb_lists_analyzed=50, ff_stack_overflows=1),
            make_energy(total_j=0.001, delay_s=0.002),
            wall_s=0.25,
        )
        assert snap.frame == 0
        assert snap.derived["rbcd.activity_ratio"] == pytest.approx(0.005)
        assert snap.derived["zeb.overflow_rate"] == pytest.approx(0.04)
        assert snap.derived["ffstack.overflow_rate"] == pytest.approx(0.02)
        assert snap.derived["energy.joules"] == pytest.approx(0.001)
        assert snap.derived["frame.sim_ms"] == pytest.approx(2.0)
        assert snap.counters["gpu.rbcd.zeb_insertions"] == 100
        assert snap.counters["energy.total_j"] == pytest.approx(0.001)
        assert monitor.frames == 1
        assert monitor.latest == snap

    def test_zero_denominators_yield_zero_rates(self):
        monitor = LiveMonitor(window=4, rules=[])
        snap = monitor.observe_frame(
            GPUStats(), FrameEnergyReport(), wall_s=0.0
        )
        assert snap.derived["rbcd.activity_ratio"] == 0.0
        assert snap.derived["zeb.overflow_rate"] == 0.0
        assert snap.derived["ffstack.overflow_rate"] == 0.0

    def test_deterministic_fingerprint_excludes_wall_clock(self):
        monitor_a = LiveMonitor(window=4, rules=[])
        monitor_b = LiveMonitor(window=4, rules=[])
        snap_a = monitor_a.observe_frame(make_stats(), make_energy(), wall_s=1.0)
        snap_b = monitor_b.observe_frame(make_stats(), make_energy(), wall_s=9.0)
        assert snap_a.deterministic_fingerprint() == (
            snap_b.deterministic_fingerprint()
        )
        assert snap_a.as_dict() != snap_b.as_dict()

    def test_window_values_are_ratios_of_window_sums(self):
        monitor = LiveMonitor(window=2, rules=[])
        monitor.observe_frame(
            make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0), make_energy()
        )
        monitor.observe_frame(
            make_stats(gpu_cycles=3000.0, rbcd_cycles=0.0), make_energy()
        )
        values = monitor.window_values()
        assert values["window.frames"] == 2.0
        # (100 + 0) / (1000 + 3000), not the mean of per-frame ratios.
        assert values["window.rbcd.activity_ratio"] == pytest.approx(0.025)

    def test_window_eviction_forgets_old_frames(self):
        monitor = LiveMonitor(window=2, rules=[])
        monitor.observe_frame(
            make_stats(zeb_insertions=10, zeb_overflow_events=10), make_energy()
        )
        for _ in range(2):
            monitor.observe_frame(
                make_stats(zeb_insertions=10, zeb_overflow_events=0),
                make_energy(),
            )
        values = monitor.window_values()
        assert values["window.zeb.overflow_rate"] == 0.0

    def test_totals_accumulate_registry_counters(self):
        monitor = LiveMonitor(window=4, rules=[])
        monitor.observe_frame(make_stats(zeb_insertions=10), make_energy())
        monitor.observe_frame(make_stats(zeb_insertions=5), make_energy())
        totals = monitor.totals()
        assert totals["gpu.rbcd.zeb_insertions"] == 15
        assert totals["energy.total_j"] == pytest.approx(0.002)

    def test_quantiles_and_ewma_appear_in_window_values(self):
        monitor = LiveMonitor(window=16, rules=[])
        for wall_ms in (1.0, 2.0, 3.0, 10.0):
            monitor.observe_frame(
                make_stats(), make_energy(), wall_s=wall_ms / 1e3
            )
        values = monitor.window_values()
        assert values["quantile.frame.wall_ms.p50"] == pytest.approx(2.0, rel=0.05)
        assert values["quantile.frame.wall_ms.p99"] == pytest.approx(10.0, rel=0.05)
        assert values["ewma.frame.wall_ms"] > 0.0

    def test_duplicate_rule_names_rejected(self):
        rule = WatchdogRule("dup", "m", "gt", 1.0)
        with pytest.raises(ValueError):
            LiveMonitor(rules=[rule, rule])


class TestListeners:
    """The flight recorder's feed: snapshot/alert/recovery events,
    dispatched after the monitor lock is released."""

    hot_rule = [
        WatchdogRule("hot", "window.rbcd.activity_ratio", "gt", 0.01)
    ]

    def test_snapshot_event_per_frame_with_payload(self):
        monitor = LiveMonitor(window=4)
        events = []
        monitor.add_listener(lambda kind, payload: events.append((kind, payload)))
        snap = monitor.observe_frame(make_stats(), make_energy())
        assert events == [("snapshot", snap)]

    def test_alert_and_recovery_events_are_edge_triggered(self):
        monitor = LiveMonitor(window=1, rules=self.hot_rule)
        events = []
        monitor.add_listener(lambda kind, payload: events.append((kind, payload)))
        hot = make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0)
        cold = make_stats(gpu_cycles=1000.0, rbcd_cycles=0.0)
        monitor.observe_frame(cold, make_energy())
        monitor.observe_frame(hot, make_energy())
        monitor.observe_frame(hot, make_energy())  # still breached: no event
        monitor.observe_frame(cold, make_energy())
        kinds = [kind for kind, _ in events]
        assert kinds == [
            "snapshot", "snapshot", "alert", "snapshot", "snapshot",
            "recovery",
        ]
        alert = next(p for k, p in events if k == "alert")
        assert isinstance(alert, Alert) and alert.rule == "hot"
        recovery = next(p for k, p in events if k == "recovery")
        assert recovery == {
            "rule": "hot",
            "metric": "window.rbcd.activity_ratio",
            "frame": 3,
        }

    def test_snapshot_event_precedes_its_alert(self):
        monitor = LiveMonitor(window=1, rules=self.hot_rule)
        events = []
        monitor.add_listener(lambda kind, _: events.append(kind))
        hot = make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0)
        monitor.observe_frame(hot, make_energy())
        assert events == ["snapshot", "alert"]

    def test_listener_may_reenter_monitor_readers(self):
        # Events are dispatched outside the monitor lock, so a listener
        # can call totals()/window_values() without deadlocking.
        monitor = LiveMonitor(window=4)
        seen = []
        monitor.add_listener(
            lambda kind, _: seen.append(
                monitor.totals()["gpu.rbcd.zeb_insertions"]
            )
        )
        monitor.observe_frame(make_stats(), make_energy())
        monitor.observe_frame(make_stats(), make_energy())
        assert seen == [100, 200]

    def test_aggregate_window_values_backs_window_values(self):
        monitor = LiveMonitor(window=4)
        for _ in range(3):
            monitor.observe_frame(make_stats(), make_energy(), wall_s=0.01)
        assert monitor.window_values() == aggregate_window_values(
            monitor._windows, monitor._ewma, monitor._sketches
        )


class TestWatchdogBehavior:
    overflow_every_frame = [
        WatchdogRule("always-overflow", "window.zeb.overflow_rate", "ge", 0.0)
    ]

    def test_edge_triggered_alert_and_recovery(self):
        rules = [
            WatchdogRule("hot", "window.rbcd.activity_ratio", "gt", 0.01)
        ]
        monitor = LiveMonitor(window=1, rules=rules)
        hot = make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0)
        cold = make_stats(gpu_cycles=1000.0, rbcd_cycles=0.0)

        monitor.observe_frame(cold, make_energy())
        assert monitor.healthy and monitor.alerts == []

        monitor.observe_frame(hot, make_energy())
        assert not monitor.healthy
        assert monitor.active_alerts == ["hot"]
        assert len(monitor.alerts) == 1

        # Still breached: edge-triggered, so no second alert.
        monitor.observe_frame(hot, make_energy())
        assert len(monitor.alerts) == 1

        # Recovery clears the active set but keeps the alert history.
        monitor.observe_frame(cold, make_energy())
        assert monitor.healthy
        assert monitor.active_alerts == []
        assert len(monitor.alerts) == 1

        # A new breach raises a fresh alert.
        monitor.observe_frame(hot, make_energy())
        assert len(monitor.alerts) == 2

    def test_alert_carries_rule_context(self):
        monitor = LiveMonitor(window=4, rules=self.overflow_every_frame)
        monitor.observe_frame(make_stats(), make_energy())
        (alert,) = monitor.alerts
        assert isinstance(alert, Alert)
        assert alert.rule == "always-overflow"
        assert alert.metric == "window.zeb.overflow_rate"
        assert alert.op == "ge" and alert.threshold == 0.0
        assert alert.frame == 0
        assert "always-overflow" in alert.message
        assert alert.as_dict()["message"] == alert.message

    def test_min_frames_defers_breach(self):
        rules = [
            WatchdogRule("warm", "window.zeb.overflow_rate", "ge", 0.0,
                         min_frames=3)
        ]
        monitor = LiveMonitor(window=8, rules=rules)
        monitor.observe_frame(make_stats(), make_energy())
        monitor.observe_frame(make_stats(), make_energy())
        assert monitor.healthy
        monitor.observe_frame(make_stats(), make_energy())
        assert not monitor.healthy

    def test_health_and_alert_readers(self):
        monitor = LiveMonitor(window=4, rules=self.overflow_every_frame)
        assert monitor.healthy
        assert monitor.active_alerts == []
        monitor.observe_frame(make_stats(), make_energy())
        assert not monitor.healthy
        assert monitor.active_alerts == ["always-overflow"]
        assert len(monitor.alerts) == 1

        assert monitor.frames == 1
        assert monitor.alerts[0].rule == "always-overflow"
        assert monitor.latest.frame == 0
        assert monitor.window_values()["window.frames"] == 1.0


class TestConcurrentReaders:
    def test_readers_see_consistent_state_while_observing(self):
        """Every reader takes the monitor lock, so another thread may
        read mid-stream: each read sees whole frames, never a torn
        update."""
        monitor = LiveMonitor(window=8, rules=[])
        errors = []

        def observe_many():
            try:
                for _ in range(30):
                    monitor.observe_frame(make_stats(), make_energy())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writer = threading.Thread(target=observe_many)
        writer.start()
        for _ in range(50):
            values = monitor.window_values()
            frames = values["window.frames"]
            assert 0.0 <= frames <= 8.0
            if frames:
                assert values["window.pairs.per_frame"] == 3.0
            assert monitor.totals().get("gpu.frames", 0) in range(31)
        writer.join()
        assert errors == []
        assert monitor.frames == 30
        assert monitor.totals_registry().as_dict() == monitor.totals()
