"""Flight recorder: an always-on black box for the collision service.

When a watchdog alert fires or a tenant is rejected, the interesting
evidence — what the stream looked like in the frames *before* the
incident — is normally gone: the live monitor keeps aggregates, the
tracer keeps growing lists nobody bounded, logs scrolled by.  This
module applies the paper's discipline ("keep exact per-tile evidence,
spend it only when asked") to runtime diagnostics: bounded ring
buffers of recent activity, recorded always, written out only on a
trigger.

Per stream (tenant), the recorder keeps rings of:

* completed tracer spans (with the request-scoped ``tenant`` /
  ``stream`` / ``frame_seq`` attributes the serving frontend stamps);
* :class:`~repro.observability.live.MetricSnapshot` records;
* watchdog alert/recovery transitions;
* admission rejections;

plus one global ring of structured log events captured from the
``repro`` logger tree.  On a trigger — watchdog alert, admission
rejection, unhandled exception in ``CollisionService.step``, or an
explicit :meth:`FlightRecorder.dump` — it writes a schema-validated
``rbcd-postmortem`` v1 document through :func:`atomic_write_text`
(write-temp + rename), so a half-written incident file can never be
mistaken for evidence.

Strictly observational: recording reads spans, snapshots and log
records; it never feeds anything back into the pipeline.  The
contract is the repo's usual one — recorder-on is bit-identical to
recorder-off (``tests/integration/test_observer_differential.py``)
and the ring contents themselves are deterministic modulo the
wall-clock fields named in :data:`WALL_FIELDS`.

The post-mortem replay (:func:`window_values_from_snapshots`) rebuilds
a monitor's sliding windows, EWMAs and quantile sketches from the
recorded snapshot stream and feeds them to the *same*
:func:`~repro.observability.live.aggregate_window_values` the live
monitor uses — so every alert's window stats are reproducible from a
dump exactly, by the counter algebra, not approximately
(:func:`verify_alert_record`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.observability.live import (
    WINDOW_SERIES,
    aggregate_window_values,
)
from repro.observability.log import _RESERVED, get_logger, log_event
from repro.observability.tracer import Span, Tracer
from repro.observability.window import Ewma, QuantileSketch, SlidingWindow

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "DEFAULT_STREAM",
    "WALL_FIELDS",
    "RingBuffer",
    "FlightRecorder",
    "config_fingerprint",
    "deterministic_event",
    "deterministic_events",
    "window_values_from_snapshots",
    "verify_alert_record",
    "validate_postmortem_document",
    "atomic_write_text",
]

_LOG = get_logger(__name__)

SCHEMA_NAME = "rbcd-postmortem"
SCHEMA_VERSION = 1

# The stream events land on when no tenant attribute identifies one
# (single-system runs like ``python -m repro.experiments.monitor``).
DEFAULT_STREAM = "default"

# Record fields that measure the host clock, not the model.  The
# determinism contract covers everything *except* these:
# ``deterministic_events`` strips them before ring-content comparison.
WALL_FIELDS = frozenset({"ts", "wall_s", "t_start", "t_end"})

# Kinds that auto-dump by default.  "manual" (explicit dump()) is
# always allowed and never suppressed by the dump limit check alone.
DEFAULT_DUMP_ON = ("alert", "rejection", "exception")


def atomic_write_text(path: str | os.PathLike, text: str) -> Path:
    """Atomically publish ``text`` to ``path`` (write-temp + rename).

    The temporary file lives in the target's directory so the
    ``os.replace`` is a same-filesystem rename — atomic on POSIX.  Any
    reader that sees ``path`` at all sees the complete contents; a
    crash mid-write leaves the previous version (or nothing) in place.
    Returns the path written.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)
    return target


class RingBuffer:
    """Bounded FIFO of records with drop accounting.

    Appends are O(1); the oldest record is evicted once ``capacity``
    is reached.  ``total``/``dropped`` keep the exact arithmetic the
    post-mortem document reports, so a reader knows whether the ring
    underran the window it wants to replay.
    """

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.total = 0

    def append(self, item) -> None:
        self._items.append(item)
        self.total += 1

    @property
    def dropped(self) -> int:
        return self.total - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> list:
        """The current contents, oldest first (a shallow copy)."""
        return list(self._items)

    def stats(self) -> dict[str, int]:
        return {
            "capacity": self.capacity,
            "recorded": self.total,
            "dropped": self.dropped,
        }


class _StreamRings:
    """One tenant's rings plus its monitor/config references."""

    def __init__(
        self,
        span_capacity: int,
        snapshot_capacity: int,
        alert_capacity: int,
        rejection_capacity: int,
    ) -> None:
        self.spans = RingBuffer(span_capacity)
        self.snapshots = RingBuffer(snapshot_capacity)
        self.alerts = RingBuffer(alert_capacity)
        self.rejections = RingBuffer(rejection_capacity)
        self.monitor = None
        self.monitor_meta: dict[str, Any] | None = None
        self.config: dict[str, Any] | None = None

    def rings(self) -> dict[str, RingBuffer]:
        return {
            "spans": self.spans,
            "snapshots": self.snapshots,
            "alerts": self.alerts,
            "rejections": self.rejections,
        }


class _RecorderLogHandler(logging.Handler):
    """Feeds ``repro.*`` log records into the recorder's log ring."""

    def __init__(self, recorder: "FlightRecorder", level: int) -> None:
        super().__init__(level)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._recorder._record_log_record(record)
        except Exception:  # pragma: no cover - never take logging down
            self.handleError(record)


def _config_token(config) -> bytes:
    """Canonical bytes of the config fields that shape a tile's
    collisionable fragment stream or its RBCD processing.

    The layout (version tag included) is frozen so tokens recorded in
    earlier post-mortem dumps stay comparable.
    """
    r = config.rbcd
    return repr((
        b"rbcd-tilesig-v1",
        config.tile_size,
        config.screen_width,
        config.screen_height,
        r.zeb_count,
        r.list_length,
        r.element_bits,
        r.z_bits,
        r.id_bits,
        r.ff_stack_entries,
        r.spare_entries_per_tile,
        r.cpu_fallback_overflow_rate,
    )).encode("ascii")


def config_fingerprint(config) -> dict[str, Any]:
    """A readable + hashable identity for a stream's ``GPUConfig``.

    Carries the fields that shape results (screen, tiles, RBCD unit)
    and a blake2b digest of the canonical config bytes, so two dumps
    can be compared for config drift at a glance.
    """
    return {
        "screen": [config.screen_width, config.screen_height],
        "tile_size": config.tile_size,
        "zeb_count": config.rbcd.zeb_count,
        "list_length": config.rbcd.list_length,
        "token": hashlib.blake2b(
            _config_token(config), digest_size=16
        ).hexdigest(),
    }


class FlightRecorder:
    """Bounded always-on recording with triggered post-mortem dumps.

    Attach points (all optional, all observational):

    * :meth:`attach_tracer` — subscribe to a tracer's completed spans
      (or create a recorder-owned bounded one);
    * :meth:`attach_monitor` — subscribe to a
      :class:`~repro.observability.live.LiveMonitor`'s snapshots and
      watchdog transitions;
    * :meth:`attach_config` — fingerprint a stream's config;
    * :meth:`record_rejection` / :meth:`record_exception` — admission
      and crash evidence from the serving frontend;
    * log capture from the ``repro`` logger tree is on by default
      (``capture_logs=False`` disables; :meth:`close` detaches).

    ``dump_on`` names the trigger kinds that auto-dump; ``dump_limit``
    bounds how many documents an incident storm may write (the
    default 1 keeps a CI job or a misbehaving tenant from filling the
    disk — later triggers are counted in ``dumps_suppressed``).
    Explicit :meth:`dump` calls ignore the limit.  With no ``dump_dir``
    nothing auto-dumps: triggers are counted in :attr:`triggers` and
    :meth:`dump` needs an explicit path.
    """

    def __init__(
        self,
        dump_dir: str | Path | None = None,
        *,
        span_capacity: int = 512,
        snapshot_capacity: int = 256,
        alert_capacity: int = 64,
        rejection_capacity: int = 128,
        log_capacity: int = 256,
        dump_on: Iterable[str] = DEFAULT_DUMP_ON,
        dump_limit: int | None = 1,
        capture_logs: bool = True,
        log_level: int = logging.DEBUG,
        clock=time.time,
    ) -> None:
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.dump_on = frozenset(dump_on)
        self.dump_limit = dump_limit
        self._clock = clock
        self._capacities = (
            span_capacity, snapshot_capacity, alert_capacity,
            rejection_capacity,
        )
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._streams: dict[str, _StreamRings] = {}
        self._logs = RingBuffer(log_capacity)
        self.triggers: dict[str, int] = {}
        self.dumps_written = 0
        self.dumps_suppressed = 0
        self.dump_paths: list[Path] = []
        self._dump_index = 0
        self._log_handler: _RecorderLogHandler | None = None
        if capture_logs:
            self._log_handler = _RecorderLogHandler(self, log_level)
            get_logger().addHandler(self._log_handler)

    # -- attach points -------------------------------------------------------

    def attach_tracer(self, tracer=None, stream: str = DEFAULT_STREAM):
        """Record completed spans from ``tracer`` (returned).

        With ``tracer=None`` a recorder-owned ``Tracer(keep_spans=
        False)`` is created: listeners see every span, but the tracer
        itself holds at most one frame's tree — bounded memory for an
        always-on recorder.  Spans carrying a ``tenant`` attribute are
        routed to that stream's ring; others land on ``stream``.
        """
        if tracer is None:
            tracer = Tracer(keep_spans=False)
        tracer.add_listener(
            lambda span, _stream=stream: self.record_span(span, stream=_stream)
        )
        return tracer

    def attach_monitor(self, monitor, stream: str = DEFAULT_STREAM):
        """Record ``monitor``'s snapshots and watchdog transitions.

        Also retains the monitor's window/sketch/EWMA parameters (the
        post-mortem replay needs them) and reads its cumulative
        counter totals at dump time.  Returns the monitor.
        """
        with self._lock:
            rings = self._stream_locked(stream)
            rings.monitor = monitor
            rings.monitor_meta = {
                "window": monitor.window_size,
                "sketch_accuracy": monitor.sketch_accuracy,
                "ewma_alpha": monitor.ewma_alpha,
            }
        monitor.add_listener(
            lambda kind, payload, _stream=stream:
                self._on_monitor_event(_stream, kind, payload)
        )
        return monitor

    def attach_config(self, config, stream: str = DEFAULT_STREAM) -> None:
        """Fingerprint ``config`` into the stream's dump header."""
        fingerprint = config_fingerprint(config)
        with self._lock:
            self._stream_locked(stream).config = fingerprint

    # -- recording -----------------------------------------------------------

    def record_span(self, span: Span, stream: str = DEFAULT_STREAM) -> None:
        stream = str(span.attrs.get("tenant", stream))
        self._record(
            lambda: self._stream_locked(stream).spans,
            {
                "kind": "span",
                "stream": stream,
                "name": span.name,
                "category": span.category,
                "index": span.index,
                "parent": span.parent,
                "depth": span.depth,
                "cycles": span.cycles,
                "attrs": dict(span.attrs),
                "t_start": span.t_start,
                "t_end": span.t_end,
                "wall_s": span.wall_s,
            },
        )

    def _on_monitor_event(self, stream: str, kind: str, payload) -> None:
        if kind == "snapshot":
            self._record(
                lambda: self._stream_locked(stream).snapshots,
                {"kind": "snapshot", "stream": stream, **payload.as_dict()},
            )
        elif kind == "alert":
            self._record(
                lambda: self._stream_locked(stream).alerts,
                {"kind": "alert", "stream": stream, **payload.as_dict()},
            )
            self.trigger(
                "alert", stream=stream, rule=payload.rule,
                metric=payload.metric, frame=payload.frame,
            )
        elif kind == "recovery":
            self._record(
                lambda: self._stream_locked(stream).alerts,
                {"kind": "recovery", "stream": stream, **payload},
            )

    def record_rejection(
        self, stream: str, reason: str, detail: str = "", **attrs
    ) -> None:
        """Record an admission rejection, then fire its trigger."""
        self._record(
            lambda: self._stream_locked(stream).rejections,
            {
                "kind": "rejection", "stream": stream,
                "reason": reason, "detail": detail, **attrs,
            },
        )
        self.trigger("rejection", stream=stream, reason=reason)

    def record_exception(self, stream: str, exc: BaseException, **attrs) -> None:
        """Fire the crash trigger (the dump itself is the evidence)."""
        self.trigger("exception", stream=stream, error=repr(exc), **attrs)

    def _record_log_record(self, record: logging.LogRecord) -> None:
        payload: dict[str, Any] = {
            "kind": "log",
            "ts": record.created,
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_"):
                continue
            payload[key] = value
        self._record(lambda: self._logs, payload)

    def _record(self, ring_of, record: dict) -> None:
        with self._lock:
            ring_of().append({"seq": next(self._seq), **record})

    def _stream_locked(self, stream: str) -> _StreamRings:
        rings = self._streams.get(stream)
        if rings is None:
            rings = self._streams[stream] = _StreamRings(*self._capacities)
        return rings

    # -- triggers and dumps --------------------------------------------------

    def trigger(self, kind: str, **detail) -> Path | None:
        """Fire a trigger; auto-dump if ``kind`` is armed, a ``dump_dir``
        is set, and the dump limit allows.  Returns the dump path if one
        was written.  Without a ``dump_dir`` triggers are only counted.

        Dump failures are logged, not raised — a full disk must not
        take the serving path down with it.
        """
        with self._lock:
            self.triggers[kind] = self.triggers.get(kind, 0) + 1
            if kind not in self.dump_on or self.dump_dir is None:
                return None
            if (
                self.dump_limit is not None
                and self._dump_index >= self.dump_limit
            ):
                self.dumps_suppressed += 1
                return None
        try:
            return self.dump(trigger=kind, detail=detail)
        except OSError as exc:
            log_event(
                _LOG, "flightrecorder.dump_failed", level=logging.ERROR,
                trigger=kind, error=repr(exc),
            )
            return None

    def dump(
        self,
        path: str | Path | None = None,
        *,
        trigger: str = "manual",
        detail: Mapping[str, Any] | None = None,
    ) -> Path:
        """Write the post-mortem document now (atomic rename).

        Explicit calls ignore ``dump_limit``.  With no ``path``, the
        file lands in ``dump_dir`` as ``postmortem-NNNN-<trigger>.json``.
        The document is validated before it is written: the recorder
        never publishes evidence it would itself reject.
        """
        doc = self.document(trigger=trigger, detail=detail)
        validate_postmortem_document(doc)
        with self._lock:
            index = self._dump_index
            self._dump_index += 1
        if path is None:
            if self.dump_dir is None:
                raise ValueError(
                    "FlightRecorder.dump() needs a path or a dump_dir"
                )
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            slug = "".join(
                ch if ch.isalnum() else "-" for ch in trigger
            ).strip("-") or "dump"
            path = self.dump_dir / f"postmortem-{index:04d}-{slug}.json"
        target = atomic_write_text(
            path, json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
        )
        with self._lock:
            self.dumps_written += 1
            self.dump_paths.append(target)
        log_event(
            _LOG, "flightrecorder.dump", level=logging.WARNING,
            trigger=trigger, path=str(target),
        )
        return target

    def document(
        self,
        trigger: str = "manual",
        detail: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Build the ``rbcd-postmortem`` v1 document (no file I/O)."""
        with self._lock:
            streams: dict[str, Any] = {}
            monitors = {}
            for name in sorted(self._streams):
                rings = self._streams[name]
                streams[name] = {
                    "config": rings.config,
                    "monitor": (
                        dict(rings.monitor_meta)
                        if rings.monitor_meta is not None else None
                    ),
                    "counters": {},
                    "spans": rings.spans.snapshot(),
                    "snapshots": rings.snapshots.snapshot(),
                    "alerts": rings.alerts.snapshot(),
                    "rejections": rings.rejections.snapshot(),
                    "rings": {
                        ring_name: ring.stats()
                        for ring_name, ring in rings.rings().items()
                    },
                }
                monitors[name] = rings.monitor
            doc = {
                "schema": SCHEMA_NAME,
                "version": SCHEMA_VERSION,
                "trigger": {
                    "kind": trigger,
                    "detail": dict(detail) if detail else {},
                    "seq": next(self._seq),
                    "ts": self._clock(),
                },
                "streams": streams,
                "logs": self._logs.snapshot(),
                "log_ring": self._logs.stats(),
                "stats": {
                    "dumps_written": self.dumps_written,
                    "dumps_suppressed": self.dumps_suppressed,
                    "triggers": dict(self.triggers),
                },
            }
        # Counter totals read outside the recorder lock: the monitor
        # has its own lock and calls listeners without holding it, so
        # this ordering can never deadlock.
        for name, monitor in monitors.items():
            if monitor is not None:
                doc["streams"][name]["counters"] = monitor.totals()
        return doc

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Ring depths and dump counters, read in process."""
        with self._lock:
            return {
                "dumps_written": self.dumps_written,
                "dumps_suppressed": self.dumps_suppressed,
                "logs": len(self._logs),
                "streams": {
                    name: {
                        ring_name: len(ring)
                        for ring_name, ring in rings.rings().items()
                    }
                    for name, rings in self._streams.items()
                },
            }

    def close(self) -> None:
        """Detach the log handler (idempotent).  Rings survive close:
        a recorder can still dump after the stream it watched ended."""
        if self._log_handler is not None:
            get_logger().removeHandler(self._log_handler)
            self._log_handler = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- determinism helpers -----------------------------------------------------


def deterministic_event(record: Mapping[str, Any]) -> dict[str, Any]:
    """``record`` minus the wall-clock fields (:data:`WALL_FIELDS`)."""
    return {k: v for k, v in record.items() if k not in WALL_FIELDS}


def deterministic_events(records: Iterable[Mapping[str, Any]]) -> list[dict]:
    """The ring-content view the determinism contract compares."""
    return [deterministic_event(r) for r in records]


# -- post-mortem replay ------------------------------------------------------


def window_values_from_snapshots(
    snapshots: Iterable[Mapping[str, Any]],
    *,
    window: int,
    sketch_accuracy: float = 0.01,
    ewma_alpha: float = 0.2,
) -> dict[str, float]:
    """Recompute a monitor's window values from recorded snapshots.

    Rebuilds the exact per-frame series ``LiveMonitor.observe_frame``
    pushes — every input is read back from snapshot fields that are
    bitwise equal to what the live monitor saw (JSON round-trips
    Python floats exactly) — then aggregates through the shared
    :func:`~repro.observability.live.aggregate_window_values`.  Feeding
    the same frames therefore reproduces the live values bit for bit.
    """
    windows = {name: SlidingWindow(window) for name in WINDOW_SERIES}
    ewmas = {
        "frame.wall_ms": Ewma(ewma_alpha),
        "rbcd.activity_ratio": Ewma(ewma_alpha),
    }
    sketches = {
        "frame.wall_ms": QuantileSketch(sketch_accuracy),
        "frame.sim_ms": QuantileSketch(sketch_accuracy),
        "rbcd.activity_ratio": QuantileSketch(sketch_accuracy),
    }
    for record in snapshots:
        counters = record["counters"]
        derived = record["derived"]
        wall_ms = float(record["wall_s"]) * 1e3
        sim_ms = float(record["sim_s"]) * 1e3
        activity = float(derived["rbcd.activity_ratio"])
        push = {
            "rbcd_cycles": float(counters["gpu.rbcd.rbcd_cycles"]),
            "gpu_cycles": float(record["gpu_cycles"]),
            "zeb_overflow_events":
                float(counters["gpu.rbcd.zeb_overflow_events"]),
            "zeb_insertions": float(counters["gpu.rbcd.zeb_insertions"]),
            "ff_stack_overflows":
                float(counters["gpu.rbcd.ff_stack_overflows"]),
            "zeb_lists_analyzed":
                float(counters["gpu.rbcd.zeb_lists_analyzed"]),
            "energy_j": float(derived["energy.joules"]),
            "wall_ms": wall_ms,
            "sim_ms": sim_ms,
            "pairs": float(counters["gpu.rbcd.collision_pairs_emitted"]),
        }
        for name in WINDOW_SERIES:
            windows[name].push(push[name])
        ewmas["frame.wall_ms"].update(wall_ms)
        ewmas["rbcd.activity_ratio"].update(activity)
        sketches["frame.wall_ms"].add(wall_ms)
        sketches["frame.sim_ms"].add(sim_ms)
        sketches["rbcd.activity_ratio"].add(activity)
    return aggregate_window_values(windows, ewmas, sketches)


def verify_alert_record(
    alert: Mapping[str, Any],
    snapshots: Iterable[Mapping[str, Any]],
    monitor_meta: Mapping[str, Any],
) -> dict[str, Any]:
    """Cross-check one recorded alert against recorded snapshots.

    Replays the snapshot stream up to the alert's frame through
    :func:`window_values_from_snapshots` and compares the recomputed
    metric to the alert's recorded value with exact float equality.
    Returns a verdict dict with ``status`` one of:

    * ``"reproduced"`` — recomputed value equals the recorded one;
    * ``"unverifiable"`` — the snapshot ring dropped frames the
      metric's support needs (window metrics need the trailing
      ``window`` frames; EWMAs and quantiles need the whole stream);
    * ``"mismatch"`` — the values differ (corrupt or tampered dump).
    """
    frame = int(alert["frame"])
    metric = str(alert["metric"])
    expected = float(alert["value"])
    window = int(monitor_meta["window"])
    by_frame = {
        int(r["frame"]): r for r in snapshots if int(r["frame"]) <= frame
    }
    if metric.startswith("window."):
        required = list(range(max(0, frame - window + 1), frame + 1))
    else:
        # ewma.* / quantile.* carry state from every frame ever seen.
        required = list(range(0, frame + 1))
    missing = [f for f in required if f not in by_frame]
    verdict = {
        "rule": alert.get("rule"),
        "metric": metric,
        "frame": frame,
        "expected": expected,
        "recomputed": None,
    }
    if missing:
        verdict["status"] = "unverifiable"
        verdict["reason"] = (
            f"snapshot ring is missing frame(s) "
            f"{missing[0]}..{missing[-1]} needed to replay {metric}"
        )
        return verdict
    values = window_values_from_snapshots(
        [by_frame[f] for f in required],
        window=window,
        sketch_accuracy=float(monitor_meta["sketch_accuracy"]),
        ewma_alpha=float(monitor_meta["ewma_alpha"]),
    )
    if metric not in values:
        verdict["status"] = "unverifiable"
        verdict["reason"] = f"replay produced no value for {metric}"
        return verdict
    recomputed = float(values[metric])
    verdict["recomputed"] = recomputed
    if recomputed == expected:
        verdict["status"] = "reproduced"
    else:
        verdict["status"] = "mismatch"
        verdict["reason"] = (
            f"recomputed {recomputed!r} != recorded {expected!r}"
        )
    return verdict


# -- validation --------------------------------------------------------------


def _fail(reason: str) -> None:
    raise ValueError(f"invalid {SCHEMA_NAME} document: {reason}")


def _require_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        _fail(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _require_int(value, where: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"{where} expected an int, got {value!r}")
    if value < minimum:
        _fail(f"{where} must be >= {minimum}, got {value}")
    return value


def _require_number(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} expected a number, got {value!r}")
    return value


def _require_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(f"{where} expected a non-empty string, got {value!r}")
    return value


def _check_records(
    records, where: str, kinds: tuple[str, ...], required: tuple[str, ...]
) -> None:
    if not isinstance(records, list):
        _fail(f"{where} must be a list")
    last_seq = -1
    for i, record in enumerate(records):
        slot = f"{where}[{i}]"
        _require_mapping(record, slot)
        seq = _require_int(record.get("seq"), f"{slot}.seq")
        if seq <= last_seq:
            _fail(f"{slot}.seq {seq} not increasing (previous {last_seq})")
        last_seq = seq
        kind = record.get("kind")
        if kind not in kinds:
            _fail(f"{slot}.kind {kind!r} not in {kinds}")
        for field_name in required:
            if field_name not in record:
                _fail(f"{slot} missing field {field_name!r}")


def _check_ring_stats(stats, where: str, contents_len: int) -> None:
    stats = _require_mapping(stats, where)
    capacity = _require_int(stats.get("capacity"), f"{where}.capacity", 1)
    recorded = _require_int(stats.get("recorded"), f"{where}.recorded")
    dropped = _require_int(stats.get("dropped"), f"{where}.dropped")
    if dropped + contents_len != recorded:
        _fail(
            f"{where}: dropped({dropped}) + kept({contents_len}) "
            f"!= recorded({recorded})"
        )
    if contents_len > capacity:
        _fail(f"{where}: {contents_len} records exceed capacity {capacity}")


def validate_postmortem_document(doc) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed
    ``rbcd-postmortem`` v1 document."""
    _require_mapping(doc, "document")
    if doc.get("schema") != SCHEMA_NAME:
        _fail(f"schema must be {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    if doc.get("version") != SCHEMA_VERSION:
        _fail(f"version must be {SCHEMA_VERSION}, got {doc.get('version')!r}")
    trigger = _require_mapping(doc.get("trigger"), "trigger")
    _require_str(trigger.get("kind"), "trigger.kind")
    _require_mapping(trigger.get("detail"), "trigger.detail")
    _require_int(trigger.get("seq"), "trigger.seq")
    streams = _require_mapping(doc.get("streams"), "streams")
    for name, stream in streams.items():
        where = f"streams[{name!r}]"
        stream = _require_mapping(stream, where)
        if stream.get("config") is not None:
            _require_mapping(stream["config"], f"{where}.config")
        meta = stream.get("monitor")
        if meta is not None:
            meta = _require_mapping(meta, f"{where}.monitor")
            _require_int(meta.get("window"), f"{where}.monitor.window", 1)
            _require_number(
                meta.get("sketch_accuracy"), f"{where}.monitor.sketch_accuracy"
            )
            _require_number(
                meta.get("ewma_alpha"), f"{where}.monitor.ewma_alpha"
            )
        counters = _require_mapping(stream.get("counters"), f"{where}.counters")
        for cname, cvalue in counters.items():
            _require_number(cvalue, f"{where}.counters[{cname!r}]")
        _check_records(
            stream.get("spans"), f"{where}.spans", ("span",),
            ("stream", "name", "category", "cycles", "attrs"),
        )
        _check_records(
            stream.get("snapshots"), f"{where}.snapshots", ("snapshot",),
            ("stream", "frame", "gpu_cycles", "counters", "derived"),
        )
        last_frame = -1
        for i, snap in enumerate(stream["snapshots"]):
            frame = _require_int(
                snap.get("frame"), f"{where}.snapshots[{i}].frame"
            )
            if frame <= last_frame:
                _fail(
                    f"{where}.snapshots[{i}].frame {frame} not increasing"
                )
            last_frame = frame
        _check_records(
            stream.get("alerts"), f"{where}.alerts", ("alert", "recovery"),
            ("stream", "rule", "metric", "frame"),
        )
        for i, record in enumerate(stream["alerts"]):
            if record["kind"] == "alert":
                for field_name in ("value", "threshold", "op"):
                    if field_name not in record:
                        _fail(
                            f"{where}.alerts[{i}] missing {field_name!r}"
                        )
        _check_records(
            stream.get("rejections"), f"{where}.rejections", ("rejection",),
            ("stream", "reason"),
        )
        rings = _require_mapping(stream.get("rings"), f"{where}.rings")
        for ring_name in ("spans", "snapshots", "alerts", "rejections"):
            _check_ring_stats(
                rings.get(ring_name), f"{where}.rings.{ring_name}",
                len(stream[ring_name]),
            )
    _check_records(
        doc.get("logs"), "logs", ("log",), ("level", "logger", "event")
    )
    _check_ring_stats(doc.get("log_ring"), "log_ring", len(doc["logs"]))
    stats = _require_mapping(doc.get("stats"), "stats")
    _require_int(stats.get("dumps_written"), "stats.dumps_written")
    _require_int(stats.get("dumps_suppressed"), "stats.dumps_suppressed")
    _require_mapping(stats.get("triggers"), "stats.triggers")
