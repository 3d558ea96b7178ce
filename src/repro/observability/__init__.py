"""Observability: tracing, counters, exporters, live telemetry.

The measurement substrate under the simulator: :class:`Tracer` spans
record where wall time and simulated cycles go (frame → tile → stage),
:class:`CounterRegistry` gives every subsystem's counters one named,
mergeable namespace, and the exporters turn a trace into ndjson or a
``chrome://tracing`` file.  ``python -m repro.experiments.bench`` sits
on top and writes ``BENCH_rbcd.json``; :class:`LiveMonitor`
(``python -m repro.experiments.monitor``) turns a long-running frame
stream into sliding-window rates with watchdog alerting, read in
process, and :class:`FlightRecorder` keeps the recent evidence for
post-mortem dumps.
"""

from repro.observability.counters import (
    CounterAlgebra,
    CounterRegistry,
    CounterSpec,
    registry_from_counters,
)
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
from repro.observability.live import (
    PAPER_ACTIVITY_ENVELOPE,
    WINDOW_SERIES,
    Alert,
    LiveMonitor,
    MetricSnapshot,
    WatchdogRule,
    aggregate_window_values,
    default_rules,
)
from repro.observability.log import (
    JsonFormatter,
    configure_json_logging,
    get_logger,
    log_event,
)
from repro.observability.window import (
    Ewma,
    QuantileSketch,
    SlidingWindow,
)
from repro.observability.export import (
    provenance_instant_events,
    span_record,
    to_chrome_trace,
    to_ndjson,
    to_provenance_ndjson,
    write_chrome_trace,
    write_ndjson,
    write_provenance_ndjson,
)
from repro.observability.provenance import (
    PairEvidence,
    ProvenanceRecorder,
    validate_evidence_record,
    validate_provenance_ndjson,
)

# repro.observability.forensics is NOT imported here: it sits on top of
# the GPU pipeline (which itself imports this package), so it must be
# imported as a module — ``from repro.observability import forensics``
# triggers no cycle either, but a package-level ``from ... import``
# at init time would.
from repro.observability.regress import (
    CONFIG_TABLE,
    REL_TOL,
    GateReport,
    MetricComparison,
    compare_documents,
    within_tol,
)
from repro.observability.tileprofile import GRID_NAMES, TileProfiler
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    ensure_tracer,
)

__all__ = [
    "CounterAlgebra",
    "CounterRegistry",
    "CounterSpec",
    "registry_from_counters",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ensure_tracer",
    "span_record",
    "to_ndjson",
    "write_ndjson",
    "to_chrome_trace",
    "write_chrome_trace",
    "PairEvidence",
    "ProvenanceRecorder",
    "validate_evidence_record",
    "validate_provenance_ndjson",
    "provenance_instant_events",
    "to_provenance_ndjson",
    "write_provenance_ndjson",
    "CONFIG_TABLE",
    "REL_TOL",
    "within_tol",
    "GateReport",
    "MetricComparison",
    "compare_documents",
    # per-tile profiles
    "GRID_NAMES",
    "TileProfiler",
    # live telemetry
    "LiveMonitor",
    "MetricSnapshot",
    "WatchdogRule",
    "Alert",
    "default_rules",
    "aggregate_window_values",
    "PAPER_ACTIVITY_ENVELOPE",
    "WINDOW_SERIES",
    # flight recorder / post-mortem
    "FlightRecorder",
    "RingBuffer",
    "DEFAULT_STREAM",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "WALL_FIELDS",
    "config_fingerprint",
    "deterministic_event",
    "deterministic_events",
    "validate_postmortem_document",
    "verify_alert_record",
    "window_values_from_snapshots",
    "atomic_write_text",
    # streaming aggregation
    "SlidingWindow",
    "Ewma",
    "QuantileSketch",
    # structured logging
    "JsonFormatter",
    "get_logger",
    "log_event",
    "configure_json_logging",
]
