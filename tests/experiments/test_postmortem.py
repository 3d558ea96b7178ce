"""The postmortem CLI end to end: load, render, filter, verify, fail.

Dumps are produced by a real :class:`FlightRecorder` fed a fabricated
two-tenant incident (tenant ``t00`` breaches a watchdog rule on frame
2, tenant ``t01`` suffers an admission rejection), so every rendered
timeline row — spans, snapshots, alerts, rejections, log events — comes
through the same capture path production uses.
"""

import json
import logging

import pytest

from repro.energy.gpu_power import GPUEnergyBreakdown
from repro.energy.report import FrameEnergyReport
from repro.experiments.postmortem import (
    frame_of,
    load_document,
    main,
    stream_of,
    timeline_events,
    verify_document_alerts,
)
from repro.gpu.stats import GPUStats
from repro.observability.flightrecorder import FlightRecorder
from repro.observability.live import LiveMonitor, WatchdogRule
from repro.observability.log import get_logger, log_event

HOT = WatchdogRule("hot", "window.rbcd.activity_ratio", "gt", 0.01)


def make_stats(rbcd_cycles=5.0) -> GPUStats:
    return GPUStats(
        gpu_cycles=1000.0,
        rbcd_cycles=rbcd_cycles,
        zeb_insertions=100,
        zeb_lists_analyzed=50,
        collision_pairs_emitted=3,
    )


def make_energy() -> FrameEnergyReport:
    return FrameEnergyReport(
        gpu=GPUEnergyBreakdown(static_j=0.001), delay_s=0.002
    )


def write_dump(tmp_path, name="box", breach=True):
    """Record a small two-tenant incident and dump it explicitly."""
    recorder = FlightRecorder(dump_dir=tmp_path / name, dump_on=())
    try:
        tracer = recorder.attach_tracer()
        monitors = {
            tenant: recorder.attach_monitor(
                LiveMonitor(window=4, rules=[HOT]), stream=tenant
            )
            for tenant in ("t00", "t01")
        }
        for frame in range(3):
            for tenant, monitor in monitors.items():
                with tracer.context(tenant=tenant, frame_seq=frame):
                    with tracer.span("frame") as span:
                        span.cycles = 100.0 + frame
                hot = breach and tenant == "t00" and frame == 2
                monitor.observe_frame(
                    make_stats(100.0 if hot else 5.0), make_energy()
                )
        log_event(
            get_logger("repro.test.postmortem"), "incident.note",
            level=logging.WARNING, tenant="t00", frame=1,
        )
        recorder.record_rejection("t01", "queue_full", detail="depth 8")
        return recorder.dump()
    finally:
        recorder.close()


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    return write_dump(tmp_path_factory.mktemp("postmortem"))


class TestHelpers:
    def test_frame_of_prefers_direct_then_attrs(self):
        assert frame_of({"frame": 3}) == 3
        assert frame_of({"attrs": {"frame_seq": 7}}) == 7
        assert frame_of({"attrs": {"frame": 2}}) == 2
        assert frame_of({"frame_seq": 5}) == 5
        assert frame_of({"name": "no correlation"}) is None

    def test_stream_of_falls_back_to_log_tenant(self):
        assert stream_of({"stream": "t00"}) == "t00"
        assert stream_of({"kind": "log", "tenant": "t01"}) == "t01"
        assert stream_of({"kind": "log"}) is None

    def test_timeline_events_are_seq_ordered(self, dump):
        events = timeline_events(load_document(dump))
        seqs = [record["seq"] for record in events]
        assert seqs == sorted(seqs)
        kinds = {record["kind"] for record in events}
        assert {"span", "snapshot", "alert", "rejection", "log"} <= kinds

    def test_verify_document_alerts_reproduces(self, dump):
        verdicts = verify_document_alerts(load_document(dump))
        assert [v["status"] for v in verdicts] == ["reproduced"]
        assert verdicts[0]["stream"] == "t00"
        assert verdicts[0]["recomputed"] == verdicts[0]["expected"]


class TestCli:
    def test_check_validates_and_exits_zero(self, dump, capsys):
        assert main([str(dump), "--check"]) == 0
        out = capsys.readouterr().out
        assert "valid rbcd-postmortem v1" in out
        assert str(dump) in out

    def test_text_timeline_correlates_every_source(self, dump, capsys):
        assert main([str(dump)]) == 0
        out = capsys.readouterr().out
        assert "(trigger: manual)" in out
        assert "stream t00:" in out and "stream t01:" in out
        assert "timeline:" in out
        # One row per capture source, each attributed and described.
        assert "frame (cycles=102" in out
        assert "hot: window.rbcd.activity_ratio" in out
        assert "admission refused: queue_full (depth 8)" in out
        assert "WARNING incident.note" in out
        assert "alert cross-checks:" in out
        assert "[t00] hot @ frame 2: reproduced" in out

    def test_json_format_emits_machine_readable_verdicts(self, dump, capsys):
        assert main([str(dump), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["dumps"] == [str(dump)]
        seqs = [event["seq"] for event in payload["events"]]
        assert seqs == sorted(seqs)
        (verdict,) = payload["verdicts"]
        assert verdict["status"] == "reproduced"
        assert verdict["rule"] == "hot" and verdict["frame"] == 2

    def test_tenant_filter_drops_other_streams(self, dump, capsys):
        assert main([str(dump), "--tenant", "t01", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert all(
            stream_of(event) == "t01" for event in payload["events"]
        )
        kinds = {event["kind"] for event in payload["events"]}
        assert "rejection" in kinds and "alert" not in kinds

    def test_frames_filter_keeps_only_the_window(self, dump, capsys):
        assert main([str(dump), "--frames", "2:2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert all(frame_of(event) == 2 for event in payload["events"])
        kinds = {event["kind"] for event in payload["events"]}
        assert "alert" in kinds
        # The frame-1 log line and the un-attributed rejection drop out.
        assert "rejection" not in kinds
        assert all(
            event.get("event") != "incident.note"
            for event in payload["events"]
        )

    def test_empty_filter_result_says_so(self, dump, capsys):
        assert main([str(dump), "--tenant", "nobody", "--no-verify"]) == 0
        assert "(no events match the filters)" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["oops", "3:1", "1:2:3x"])
    def test_bad_frames_spec_exits_two(self, dump, spec, capsys):
        assert main([str(dump), "--frames", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_multiple_dumps_merge_with_prefixes(self, dump, tmp_path, capsys):
        other = write_dump(tmp_path, name="second", breach=False)
        assert main([str(dump), str(other)]) == 0
        out = capsys.readouterr().out
        assert "dump0 [seq" in out and "dump1 [seq" in out

    def test_tampered_dump_fails_replay_and_exits_three(
        self, dump, tmp_path, capsys
    ):
        doc = json.loads(dump.read_text(encoding="utf-8"))
        for record in doc["streams"]["t00"]["alerts"]:
            if record["kind"] == "alert":
                record["value"] *= 2.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc), encoding="utf-8")
        assert main([str(tampered)]) == 3
        captured = capsys.readouterr()
        assert "hot @ frame 2: mismatch" in captured.out
        assert "failed replay verification" in captured.err
        # The json surface reports the same failure for scripting.
        assert main([str(tampered), "--format", "json"]) == 3
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_corrupt_document_raises_value_error(self, dump, tmp_path):
        broken = tmp_path / "broken.json"
        doc = json.loads(dump.read_text(encoding="utf-8"))
        doc.pop("schema")
        broken.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError):
            main([str(broken), "--check"])
