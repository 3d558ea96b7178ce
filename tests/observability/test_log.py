"""Structured JSON logging: formatter, event helper, configuration."""

import io
import json
import logging

from repro.observability.log import (
    ROOT_LOGGER_NAME,
    JsonFormatter,
    configure_json_logging,
    get_logger,
    log_event,
)


def capture_events(level=logging.DEBUG):
    """A repro-tree handler writing JSON lines into a StringIO."""
    stream = io.StringIO()
    handler = configure_json_logging(stream=stream, level=level)
    return stream, handler


def teardown_handler(handler):
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.removeHandler(handler)
    root.propagate = True
    root.setLevel(logging.NOTSET)


def emitted(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestGetLogger:
    def test_normalizes_names_into_repro_tree(self):
        assert get_logger().name == "repro"
        assert get_logger("repro").name == "repro"
        assert get_logger("gpu.parallel").name == "repro.gpu.parallel"
        assert get_logger("repro.gpu.parallel") is get_logger("gpu.parallel")


class TestLogEvent:
    def test_emits_event_name_and_fields(self):
        stream, handler = capture_events()
        try:
            log_event(get_logger("test"), "unit.event", answer=42, label="x")
        finally:
            teardown_handler(handler)
        (record,) = emitted(stream)
        assert record["event"] == "unit.event"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.test"
        assert record["answer"] == 42
        assert record["label"] == "x"
        assert "ts" in record

    def test_disabled_level_is_a_noop(self):
        stream, handler = capture_events(level=logging.WARNING)
        try:
            log_event(get_logger("test"), "quiet", level=logging.DEBUG)
        finally:
            teardown_handler(handler)
        assert emitted(stream) == []

    def test_reserved_field_names_are_prefixed_not_fatal(self):
        # Alert.as_dict() carries a "message" key; stdlib logging
        # reserves it, so log_event must remap rather than raise.
        stream, handler = capture_events()
        try:
            log_event(
                get_logger("test"), "alerting",
                level=logging.WARNING,
                message="threshold crossed", name="rule-x", value=3,
            )
        finally:
            teardown_handler(handler)
        (record,) = emitted(stream)
        assert record["event"] == "alerting"
        assert record["field_message"] == "threshold crossed"
        assert record["field_name"] == "rule-x"
        assert record["value"] == 3

    def test_non_serializable_values_are_stringified(self):
        stream, handler = capture_events()
        try:
            log_event(get_logger("test"), "odd", payload=object())
        finally:
            teardown_handler(handler)
        (record,) = emitted(stream)
        assert "object object" in record["payload"]


class TestJsonFormatter:
    def test_formats_exceptions(self):
        formatter = JsonFormatter()
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            import sys
            record = logging.LogRecord(
                name="repro.test", level=logging.ERROR, pathname="", lineno=0,
                msg="failed", args=(), exc_info=sys.exc_info(),
            )
        payload = json.loads(formatter.format(record))
        assert payload["event"] == "failed"
        assert "RuntimeError: boom" in payload["exception"]

    def test_relative_timestamps_start_near_zero(self):
        formatter = JsonFormatter()
        record = logging.LogRecord(
            name="repro.test", level=logging.INFO, pathname="", lineno=0,
            msg="tick", args=(), exc_info=None,
        )
        payload = json.loads(formatter.format(record))
        assert 0.0 <= payload["ts"] < 60.0

    def test_absolute_timestamps_are_epoch_seconds(self):
        formatter = JsonFormatter(absolute_time=True)
        record = logging.LogRecord(
            name="repro.test", level=logging.INFO, pathname="", lineno=0,
            msg="tick", args=(), exc_info=None,
        )
        payload = json.loads(formatter.format(record))
        assert payload["ts"] > 1e9  # epoch seconds, not relative


class TestConfigureJsonLogging:
    def test_idempotent_reconfiguration(self):
        stream1, handler1 = capture_events()
        stream2, handler2 = capture_events()
        try:
            root = logging.getLogger(ROOT_LOGGER_NAME)
            installed = [
                h for h in root.handlers
                if getattr(h, "_repro_json_handler", False)
            ]
            assert installed == [handler2]  # replaced, not stacked
            log_event(get_logger("test"), "routed")
        finally:
            teardown_handler(handler1)
            teardown_handler(handler2)
        assert emitted(stream1) == []
        assert [r["event"] for r in emitted(stream2)] == ["routed"]


class TestUnconfigured:
    """With no logging configured, events print nothing on stderr."""

    def test_warning_writes_nothing_to_stderr(self, capfd, monkeypatch):
        # No handler on the stdlib root (pytest installs its own there),
        # so only the repro tree's own handlers stand between a record
        # and logging.lastResort.
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        log_event(
            get_logger("observability.live"), "watchdog.alert",
            level=logging.WARNING, rule="zeb-overflow-rate",
        )
        assert capfd.readouterr().err == ""

    def test_without_the_null_handler_the_last_resort_prints(
        self, capfd, monkeypatch
    ):
        """The check above is live: removing the package's NullHandler
        brings back the bare event name on stderr."""
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        root = logging.getLogger(ROOT_LOGGER_NAME)
        monkeypatch.setattr(root, "handlers", [
            h for h in root.handlers if not isinstance(h, logging.NullHandler)
        ])
        log_event(get_logger("observability.live"), "watchdog.alert",
                  level=logging.WARNING)
        assert capfd.readouterr().err.strip() == "watchdog.alert"

    def test_caplog_and_json_handler_still_see_the_record(self, caplog):
        stream, handler = capture_events()
        try:
            log_event(get_logger("test"), "json.routed", level=logging.WARNING)
        finally:
            teardown_handler(handler)
        assert [r["event"] for r in emitted(stream)] == ["json.routed"]
        with caplog.at_level(logging.WARNING, logger=ROOT_LOGGER_NAME):
            log_event(get_logger("test"), "caplog.routed",
                      level=logging.WARNING)
        assert [r.getMessage() for r in caplog.records] == ["caplog.routed"]
