"""Observability: tracing, counters, exporters, live telemetry.

The measurement substrate under the simulator: :class:`Tracer` spans
record where wall time and simulated cycles go (frame → tile → stage),
:class:`CounterRegistry` gives every subsystem's counters one named,
mergeable namespace, and the exporters turn a trace into ndjson or a
``chrome://tracing`` file.  ``python -m repro.experiments.bench`` sits
on top and writes ``BENCH_rbcd.json``; :class:`LiveMonitor` and
:class:`MetricsServer` (``python -m repro.experiments.monitor``) turn
a long-running frame stream into live OpenMetrics telemetry with
watchdog alerting.
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
    MetricsServer,
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
from repro.observability.netutil import (
    atomic_write_text,
    linger,
    read_port_file,
    write_port_file,
)
from repro.observability.openmetrics import (
    MetricFamily,
    Sample,
    metric_name_of,
    parse_openmetrics,
    render_families,
    validate_openmetrics,
)
from repro.observability.window import (
    Ewma,
    QuantileSketch,
    SlidingWindow,
)
from repro.observability.attribution import (
    AttributionReport,
    DeltaNode,
    SceneAttribution,
    SpatialDelta,
    attribute_documents,
    cross_check_document,
)
from repro.observability.export import (
    heatmap_csv,
    provenance_instant_events,
    render_heatmap_ascii,
    span_record,
    to_chrome_trace,
    to_ndjson,
    to_provenance_ndjson,
    write_chrome_trace,
    write_heatmap_csv,
    write_ndjson,
    write_provenance_ndjson,
)
from repro.observability.profile import ProfilingTracer
from repro.observability.provenance import (
    PairEvidence,
    ProvenanceRecorder,
    evidence_from_tile,
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
    GatePolicy,
    GateReport,
    MetricComparison,
    compare_documents,
)
from repro.observability.stats import (
    MannWhitneyResult,
    SampleSummary,
    SignificanceResult,
    bootstrap_ci,
    mann_whitney_u,
    significance_of,
    summarize,
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
    "ProfilingTracer",
    "span_record",
    "to_ndjson",
    "write_ndjson",
    "to_chrome_trace",
    "write_chrome_trace",
    "PairEvidence",
    "ProvenanceRecorder",
    "evidence_from_tile",
    "validate_evidence_record",
    "validate_provenance_ndjson",
    "provenance_instant_events",
    "to_provenance_ndjson",
    "write_provenance_ndjson",
    "SampleSummary",
    "summarize",
    "bootstrap_ci",
    "mann_whitney_u",
    "MannWhitneyResult",
    "SignificanceResult",
    "significance_of",
    "CONFIG_TABLE",
    "GatePolicy",
    "GateReport",
    "MetricComparison",
    "compare_documents",
    # regression attribution + tile profiles
    "AttributionReport",
    "DeltaNode",
    "SceneAttribution",
    "SpatialDelta",
    "attribute_documents",
    "cross_check_document",
    "GRID_NAMES",
    "TileProfiler",
    "heatmap_csv",
    "write_heatmap_csv",
    "render_heatmap_ascii",
    # live telemetry
    "LiveMonitor",
    "MetricSnapshot",
    "MetricsServer",
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
    # streaming aggregation
    "SlidingWindow",
    "Ewma",
    "QuantileSketch",
    # OpenMetrics exposition
    "MetricFamily",
    "Sample",
    "metric_name_of",
    "render_families",
    "parse_openmetrics",
    "validate_openmetrics",
    # structured logging
    "JsonFormatter",
    "get_logger",
    "log_event",
    "configure_json_logging",
    # serving net helpers
    "atomic_write_text",
    "write_port_file",
    "read_port_file",
    "linger",
]
