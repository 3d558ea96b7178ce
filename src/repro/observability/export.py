"""Trace exporters: ndjson span logs and Chrome trace format.

* :func:`to_ndjson` / :func:`write_ndjson` — one JSON object per span,
  in start order; greppable, diffable, stream-appendable.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace
  Event Format consumed by ``chrome://tracing`` and Perfetto: complete
  ("X") events with microsecond timestamps; simulated cycles ride in
  ``args`` so both clocks are visible in the viewer.
* :func:`to_provenance_ndjson` / :func:`write_provenance_ndjson` — one
  JSON object per pair-evidence record from a
  :class:`~repro.observability.provenance.ProvenanceRecorder`, in
  ``(frame, tile, record)`` order; the schema is enforced by
  ``repro.observability.provenance.validate_provenance_ndjson``.
* :func:`provenance_instant_events` — the same evidence as Chrome-trace
  instant ("i") events; ``to_chrome_trace(tracer, provenance=...)``
  interleaves them with the span events.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observability.tracer import Span, Tracer


def span_record(span: Span) -> dict:
    """JSON-compatible dict for one span (the ndjson line schema)."""
    return {
        "name": span.name,
        "cat": span.category,
        "index": span.index,
        "parent": span.parent,
        "depth": span.depth,
        "t_start_s": span.t_start,
        "wall_s": span.wall_s,
        "cycles": span.cycles,
        "attrs": dict(span.attrs),
    }


def to_ndjson(tracer: Tracer) -> str:
    """All spans as newline-delimited JSON (trailing newline included)."""
    lines = [json.dumps(span_record(s), sort_keys=True) for s in tracer.spans]
    return "\n".join(lines) + ("\n" if lines else "")


def write_ndjson(tracer: Tracer, path) -> Path:
    path = Path(path)
    path.write_text(to_ndjson(tracer))
    return path


def to_chrome_trace(
    tracer: Tracer, process_name: str = "repro", provenance=None
) -> dict:
    """Trace Event Format document (load via chrome://tracing).

    ``provenance`` optionally interleaves a recorder's pair-evidence
    records as instant events (see :func:`provenance_instant_events`).
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.t_start * 1e6,     # microseconds
                "dur": span.wall_s * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"cycles": span.cycles, **span.attrs},
            }
        )
    if provenance is not None:
        events.extend(provenance_instant_events(provenance))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracer: Tracer, path, process_name: str = "repro", provenance=None
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer, process_name, provenance)))
    return path


# ---------------------------------------------------------------------------
# Provenance (pair-evidence) exporters
# ---------------------------------------------------------------------------


def to_provenance_ndjson(recorder) -> str:
    """A recorder's evidence records as newline-delimited JSON.

    One object per emitted pair, in the deterministic
    ``(frame, tile, record)`` order; trailing newline included when
    non-empty.  Validate with
    :func:`repro.observability.provenance.validate_provenance_ndjson`.
    """
    lines = [
        json.dumps(ev.as_record(), sort_keys=True) for ev in recorder.records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_provenance_ndjson(recorder, path) -> Path:
    path = Path(path)
    path.write_text(to_provenance_ndjson(recorder))
    return path


def provenance_instant_events(recorder) -> list[dict]:
    """Evidence records as Chrome-trace instant ("i") events.

    Wall-clock timestamps do not exist for emissions (they happen
    inside the simulated hardware), so events are laid out on a
    synthetic microsecond-per-record timeline on their own thread row
    (``tid=1``) — the viewer then shows one tick per emitted pair with
    the full evidence in ``args``.
    """
    events = []
    for index, ev in enumerate(recorder.records):
        lo, hi = ev.pair
        events.append(
            {
                "name": f"pair {lo}-{hi}",
                "cat": "provenance",
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": float(index),
                "pid": 0,
                "tid": 1,
                "args": ev.as_record(),
            }
        )
    return events

