"""Flight recorder unit tests: rings, capture, triggers, replay, schema.

The integration-level zero-feedback proof (recorder on == recorder off,
bit-identical, at any worker count) lives in
``tests/integration/test_observer_differential.py``; this file covers
the recorder's own mechanics with fabricated streams, plus the
no-``dump_dir`` trigger paths through the real pipeline and service.
"""

import dataclasses
import json
import logging

import pytest

from repro.energy.gpu_power import GPUEnergyBreakdown
from repro.energy.report import FrameEnergyReport
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats
from repro.observability.flightrecorder import (
    DEFAULT_STREAM,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    WALL_FIELDS,
    FlightRecorder,
    RingBuffer,
    atomic_write_text,
    config_fingerprint,
    deterministic_event,
    deterministic_events,
    validate_postmortem_document,
    verify_alert_record,
    window_values_from_snapshots,
)
from repro.observability.live import LiveMonitor, WatchdogRule
from repro.observability.log import get_logger, log_event
from repro.observability.tracer import Tracer


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


@pytest.fixture
def recorder(tmp_path):
    rec = FlightRecorder(dump_dir=tmp_path / "dumps")
    yield rec
    rec.close()


class TestRingBuffer:
    def test_capacity_validation(self):
        for bad in (0, -1, 1.5, "8"):
            with pytest.raises(ValueError):
                RingBuffer(bad)

    def test_eviction_and_drop_accounting(self):
        ring = RingBuffer(3)
        for i in range(5):
            ring.append(i)
        assert ring.snapshot() == [2, 3, 4]
        assert len(ring) == 3
        assert ring.total == 5
        assert ring.dropped == 2
        assert ring.stats() == {"capacity": 3, "recorded": 5, "dropped": 2}

    def test_snapshot_is_a_copy(self):
        ring = RingBuffer(2)
        ring.append("a")
        snap = ring.snapshot()
        snap.append("b")
        assert ring.snapshot() == ["a"]


class TestAtomicWriteText:
    def test_writes_and_returns_target(self, tmp_path):
        path = tmp_path / "doc.json"
        assert atomic_write_text(path, "{}\n") == path
        assert path.read_text() == "{}\n"

    def test_overwrites_atomically_without_temp_residue(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert path.read_text() == "second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_accepts_string_paths(self, tmp_path):
        target = atomic_write_text(str(tmp_path / "s.txt"), "x")
        assert target.read_text() == "x"


class TestConfigFingerprint:
    def test_carries_result_shaping_fields(self):
        config = GPUConfig().with_screen(160, 96)
        fp = config_fingerprint(config)
        assert fp["screen"] == [160, 96]
        assert fp["zeb_count"] == config.rbcd.zeb_count
        assert fp["list_length"] == config.rbcd.list_length
        assert isinstance(fp["token"], str) and len(fp["token"]) == 32

    def test_token_tracks_config_identity(self):
        a = config_fingerprint(GPUConfig().with_screen(160, 96))
        b = config_fingerprint(GPUConfig().with_screen(160, 96))
        c = config_fingerprint(GPUConfig().with_screen(320, 192))
        assert a["token"] == b["token"]
        assert a["token"] != c["token"]


class TestSpanCapture:
    def test_attach_tracer_creates_bounded_tracer(self, recorder):
        tracer = recorder.attach_tracer()
        assert isinstance(tracer, Tracer) and tracer.keep_spans is False

    def test_spans_recorded_with_attrs_and_cycles(self, recorder):
        tracer = recorder.attach_tracer()
        with tracer.span("frame") as sp:
            sp.add_cycles(42.0)
            with tracer.span("rbcd.tile", tile=3):
                pass
        doc = recorder.document()
        spans = doc["streams"][DEFAULT_STREAM]["spans"]
        assert [s["name"] for s in spans] == ["rbcd.tile", "frame"]
        assert spans[0]["attrs"] == {"tile": 3}
        assert spans[1]["cycles"] == 42.0
        assert tracer.spans == []  # bounded: cleared after the root closed

    def test_tenant_attr_routes_span_to_its_stream(self, recorder):
        tracer = recorder.attach_tracer(stream="fallback")
        with tracer.context(tenant="t00"):
            with tracer.span("frame"):
                pass
        with tracer.span("frame"):
            pass
        stats = recorder.stats()
        assert stats["streams"]["t00"]["spans"] == 1
        assert stats["streams"]["fallback"]["spans"] == 1

    def test_existing_tracer_passes_through(self, recorder):
        mine = Tracer()
        assert recorder.attach_tracer(mine) is mine
        with mine.span("x"):
            pass
        assert recorder.stats()["streams"][DEFAULT_STREAM]["spans"] == 1
        assert len(mine.spans) == 1  # keep_spans untouched on foreign tracers


class TestLogCapture:
    def test_repro_log_events_land_in_the_ring(self, recorder):
        log_event(
            get_logger("repro.test.fr"), "unit.test.event",
            level=logging.WARNING, tenant="t00",
        )
        doc = recorder.document()
        events = [r for r in doc["logs"] if r["event"] == "unit.test.event"]
        assert len(events) == 1
        assert events[0]["level"] == "WARNING"
        assert events[0]["tenant"] == "t00"

    def test_close_detaches_and_is_idempotent(self, tmp_path):
        rec = FlightRecorder(dump_dir=tmp_path)
        rec.close()
        rec.close()
        log_event(get_logger("repro.test.fr"), "after.close")
        assert all(
            r["event"] != "after.close" for r in rec.document()["logs"]
        )

    def test_capture_logs_false_records_nothing(self, tmp_path):
        rec = FlightRecorder(dump_dir=tmp_path, capture_logs=False)
        log_event(get_logger("repro.test.fr"), "not.captured")
        assert rec.document()["logs"] == []
        rec.close()


class TestMonitorCapture:
    hot_rule = [
        WatchdogRule("hot", "window.rbcd.activity_ratio", "gt", 0.01)
    ]

    def test_snapshots_alerts_and_recoveries_recorded(self, recorder):
        monitor = recorder.attach_monitor(
            LiveMonitor(window=1, rules=self.hot_rule), stream="t00"
        )
        hot = make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0)
        cold = make_stats(gpu_cycles=1000.0, rbcd_cycles=0.0)
        monitor.observe_frame(cold, make_energy())
        monitor.observe_frame(hot, make_energy())
        monitor.observe_frame(cold, make_energy())
        doc = recorder.document()
        stream = doc["streams"]["t00"]
        assert [r["frame"] for r in stream["snapshots"]] == [0, 1, 2]
        assert [r["kind"] for r in stream["alerts"]] == ["alert", "recovery"]
        assert stream["monitor"] == {
            "window": 1,
            "sketch_accuracy": monitor.sketch_accuracy,
            "ewma_alpha": monitor.ewma_alpha,
        }
        assert stream["counters"] == monitor.totals()

    def test_alert_triggers_exactly_one_dump(self, recorder):
        monitor = recorder.attach_monitor(
            LiveMonitor(window=1, rules=self.hot_rule), stream="t00"
        )
        hot = make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0)
        cold = make_stats(gpu_cycles=1000.0, rbcd_cycles=0.0)
        for stats in (hot, cold, hot):  # two distinct breaches
            monitor.observe_frame(stats, make_energy())
        assert recorder.dumps_written == 1
        assert recorder.dumps_suppressed == 1
        assert recorder.triggers["alert"] == 2
        (path,) = recorder.dump_paths
        assert path.name == "postmortem-0000-alert.json"
        doc = json.loads(path.read_text())
        validate_postmortem_document(doc)
        assert doc["trigger"]["kind"] == "alert"
        assert doc["trigger"]["detail"]["rule"] == "hot"


class TestTriggersAndDumps:
    def test_unarmed_kind_counts_but_never_dumps(self, tmp_path):
        rec = FlightRecorder(dump_dir=tmp_path, dump_on=())
        assert rec.trigger("alert") is None
        assert rec.triggers == {"alert": 1}
        assert rec.dumps_written == 0
        rec.close()

    def test_manual_dump_ignores_limit(self, recorder):
        first = recorder.dump()
        second = recorder.dump()
        assert first != second
        assert recorder.dumps_written == 2
        assert recorder.dumps_suppressed == 0

    def test_dump_without_destination_raises(self):
        rec = FlightRecorder()
        with pytest.raises(ValueError, match="dump_dir"):
            rec.dump()
        rec.close()

    def test_dump_to_explicit_path(self, recorder, tmp_path):
        target = tmp_path / "custom" / "evidence.json"
        target.parent.mkdir()
        assert recorder.dump(target) == target
        validate_postmortem_document(json.loads(target.read_text()))

    def test_rejection_records_then_dumps(self, recorder):
        recorder.record_rejection(
            "t00", "backlog", detail="3 pending", stream_name="s0"
        )
        doc = json.loads(recorder.dump_paths[0].read_text())
        (rec,) = doc["streams"]["t00"]["rejections"]
        assert rec["reason"] == "backlog"
        assert rec["stream_name"] == "s0"
        assert doc["trigger"]["kind"] == "rejection"

    def test_exception_trigger_carries_error(self, recorder):
        recorder.record_exception("t00", RuntimeError("boom"), frame_seq=7)
        doc = json.loads(recorder.dump_paths[0].read_text())
        assert doc["trigger"]["kind"] == "exception"
        assert "boom" in doc["trigger"]["detail"]["error"]
        assert doc["trigger"]["detail"]["frame_seq"] == 7

    def test_dump_failure_is_contained(self, tmp_path):
        victim = tmp_path / "not-a-dir"
        victim.write_text("file, not dir")
        rec = FlightRecorder(dump_dir=victim / "dumps")
        assert rec.trigger("alert") is None  # OSError swallowed + logged
        assert rec.triggers["alert"] == 1
        rec.close()


class TestNoDumpDir:
    """Without a ``dump_dir``, auto-triggers are counted, never written,
    and never raise into the pipeline or the service."""

    CONFIG = GPUConfig().with_screen(64, 32)

    @staticmethod
    def frame(object_id=1):
        from tests.conftest import two_boxes_frame

        frame = two_boxes_frame(TestNoDumpDir.CONFIG, 0.8)
        draw = dataclasses.replace(frame.draws[0], object_id=object_id)
        return dataclasses.replace(frame, draws=(draw, *frame.draws[1:]))

    def test_watchdog_alert_does_not_raise_from_detect_frame(self):
        from repro.core import RBCDSystem

        always = WatchdogRule(
            "always", "window.energy.joules_per_frame", "gt", 0.0
        )
        monitor = LiveMonitor(window=4, rules=[always])
        with FlightRecorder() as rec:
            rec.attach_monitor(monitor)
            with RBCDSystem(config=self.CONFIG, observers=[monitor]) as system:
                system.detect_frame(self.frame())
        assert [a.rule for a in monitor.alerts] == ["always"]
        assert rec.triggers == {"alert": 1}
        assert rec.dumps_written == 0 and rec.dump_paths == []

    def test_rejection_raises_admission_error(self):
        from repro.serve import AdmissionError, CollisionService

        with FlightRecorder() as rec, CollisionService(
            base_config=self.CONFIG, rules=[], max_pending=1, recorder=rec
        ) as service:
            service.register("t0")
            service.submit("t0", self.frame())
            with pytest.raises(AdmissionError):
                service.submit("t0", self.frame())
            service.drain()
        assert rec.triggers == {"rejection": 1}
        assert rec.dumps_written == 0

    def test_tenant_exception_stays_in_its_future(self):
        from repro.serve import CollisionService

        with FlightRecorder() as rec, CollisionService(
            base_config=self.CONFIG, rules=[], recorder=rec
        ) as service:
            service.register("bad")
            service.register("good")
            # 8192 does not fit the ZEB's 13-bit object-id field.
            failing = service.submit("bad", self.frame(object_id=8192))
            served = service.submit("good", self.frame())
            assert service.step() == 2
        assert isinstance(failing.exception(timeout=0), ValueError)
        assert served.result(timeout=0).result.pairs == {(1, 2)}
        assert rec.triggers == {"exception": 1}
        assert rec.dumps_written == 0


class TestDeterministicEvents:
    def test_wall_fields_are_stripped(self):
        record = {
            "seq": 1, "kind": "span", "cycles": 5.0,
            "ts": 123.0, "wall_s": 0.1, "t_start": 0.0, "t_end": 0.1,
        }
        assert deterministic_event(record) == {
            "seq": 1, "kind": "span", "cycles": 5.0,
        }
        assert deterministic_events([record, record]) == [
            {"seq": 1, "kind": "span", "cycles": 5.0},
        ] * 2
        assert WALL_FIELDS == {"ts", "wall_s", "t_start", "t_end"}


class TestReplay:
    def _json_roundtrip(self, records):
        return json.loads(json.dumps(records))

    def _feed(self, monitor, frames=6):
        for i in range(frames):
            monitor.observe_frame(
                make_stats(
                    gpu_cycles=1000.0 + 37.0 * i,
                    rbcd_cycles=3.0 + i,
                    zeb_insertions=90 + i,
                    collision_pairs_emitted=i % 4,
                ),
                make_energy(total_j=0.001 + 1e-4 * i),
                wall_s=0.008 + 1e-3 * (i % 3),
            )

    def test_replay_reproduces_live_window_values_exactly(self, recorder):
        monitor = recorder.attach_monitor(LiveMonitor(window=4), stream="t")
        self._feed(monitor)
        snapshots = self._json_roundtrip(
            recorder.document()["streams"]["t"]["snapshots"]
        )
        replayed = window_values_from_snapshots(
            snapshots,
            window=monitor.window_size,
            sketch_accuracy=monitor.sketch_accuracy,
            ewma_alpha=monitor.ewma_alpha,
        )
        assert replayed == monitor.window_values()  # bit-exact, not approx

    def test_verify_alert_reproduced(self, recorder):
        rules = [
            WatchdogRule("hot", "window.rbcd.activity_ratio", "gt", 0.001)
        ]
        monitor = recorder.attach_monitor(
            LiveMonitor(window=4, rules=rules), stream="t"
        )
        self._feed(monitor)
        doc = self._json_roundtrip(recorder.document())
        stream = doc["streams"]["t"]
        (alert,) = [r for r in stream["alerts"] if r["kind"] == "alert"]
        verdict = verify_alert_record(
            alert, stream["snapshots"], stream["monitor"]
        )
        assert verdict["status"] == "reproduced"
        assert verdict["recomputed"] == alert["value"]

    def test_verify_alert_mismatch_on_tamper(self, recorder):
        rules = [
            WatchdogRule("hot", "window.rbcd.activity_ratio", "gt", 0.001)
        ]
        monitor = recorder.attach_monitor(
            LiveMonitor(window=4, rules=rules), stream="t"
        )
        self._feed(monitor)
        doc = self._json_roundtrip(recorder.document())
        stream = doc["streams"]["t"]
        (alert,) = [r for r in stream["alerts"] if r["kind"] == "alert"]
        alert["value"] = alert["value"] * 2.0
        verdict = verify_alert_record(
            alert, stream["snapshots"], stream["monitor"]
        )
        assert verdict["status"] == "mismatch"
        assert "recomputed" in verdict["reason"]

    def test_verify_alert_unverifiable_when_ring_underran(self, tmp_path):
        # An ewma/quantile metric needs every frame since 0; a snapshot
        # ring shorter than the stream must therefore refuse to verify.
        rec = FlightRecorder(dump_dir=tmp_path, snapshot_capacity=2)
        rules = [
            WatchdogRule(
                "slo", "quantile.frame.wall_ms.p95", "gt", 0.0,
                min_frames=4,
            )
        ]
        monitor = rec.attach_monitor(
            LiveMonitor(window=4, rules=rules), stream="t"
        )
        for _ in range(4):
            monitor.observe_frame(make_stats(), make_energy(), wall_s=0.01)
        doc = rec.document()
        stream = doc["streams"]["t"]
        (alert,) = [r for r in stream["alerts"] if r["kind"] == "alert"]
        verdict = verify_alert_record(
            alert, stream["snapshots"], stream["monitor"]
        )
        assert verdict["status"] == "unverifiable"
        assert "missing frame" in verdict["reason"]
        rec.close()


class TestValidator:
    def _doc(self, recorder):
        monitor = recorder.attach_monitor(
            LiveMonitor(
                window=1,
                rules=[
                    WatchdogRule(
                        "hot", "window.rbcd.activity_ratio", "gt", 0.01
                    )
                ],
            ),
            stream="t00",
        )
        monitor.observe_frame(
            make_stats(gpu_cycles=1000.0, rbcd_cycles=100.0), make_energy()
        )
        return json.loads(json.dumps(recorder.document()))

    def test_real_document_validates(self, recorder):
        validate_postmortem_document(self._doc(recorder))

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.update(schema="nope"), "schema"),
        (lambda d: d.update(version=99), "version"),
        (lambda d: d.pop("trigger"), "trigger"),
        (lambda d: d["streams"]["t00"]["snapshots"][0].pop("seq"), "seq"),
        (lambda d: d["streams"]["t00"]["alerts"][0].pop("threshold"),
         "threshold"),
        (lambda d: d["streams"]["t00"]["rings"]["snapshots"].update(
            recorded=99), "recorded"),
        (lambda d: d["streams"]["t00"]["counters"].update(bad="x"), "bad"),
        (lambda d: d["stats"].pop("dumps_written"), "dumps_written"),
    ])
    def test_mutations_are_rejected(self, recorder, mutate, message):
        doc = self._doc(recorder)
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            validate_postmortem_document(doc)

    def test_non_monotonic_snapshot_frames_rejected(self, recorder):
        doc = self._doc(recorder)
        snap = dict(doc["streams"]["t00"]["snapshots"][0])
        snap["seq"] = snap["seq"] + 1000
        doc["streams"]["t00"]["snapshots"].append(snap)  # same frame twice
        doc["streams"]["t00"]["rings"]["snapshots"]["recorded"] += 1
        with pytest.raises(ValueError, match="not increasing"):
            validate_postmortem_document(doc)

    def test_schema_constants(self):
        assert SCHEMA_NAME == "rbcd-postmortem"
        assert SCHEMA_VERSION == 1
