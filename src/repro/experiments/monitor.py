"""Run a benchmark scene as a monitored frame stream.

``python -m repro.experiments.monitor`` drives one workload frame after
frame through an :class:`~repro.core.RBCDSystem` with a
:class:`~repro.observability.live.LiveMonitor` attached, and serves the
live telemetry over HTTP while the stream runs::

    $ PYTHONPATH=src python -m repro.experiments.monitor --scene cap
    serving http://127.0.0.1:43815  (endpoints: /metrics /healthz /snapshot.json)
    ...

``--frames 0`` (the default) streams forever, looping the scene's
animation; a finite ``--frames N`` renders N frames, then keeps the
endpoint up for ``--linger`` seconds so scrapers can collect the final
state.  ``--port 0`` binds an ephemeral port; scripts can read it back
from ``--port-file``.  ``--fail-on-alert`` turns any watchdog alert
into exit code 1, which makes the CLI usable as a CI canary::

    $ python -m repro.experiments.monitor --quick --frames 5 --fail-on-alert

Monitoring is strictly observational: the rendered frames, collision
pairs, counters and energy are bit-identical with or without the
monitor attached (see ``tests/integration/test_observer_differential.py``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.core import RBCDSystem
from repro.gpu.config import GPUConfig
from repro.observability.flightrecorder import FlightRecorder
from repro.observability.live import (
    PAPER_ACTIVITY_ENVELOPE,
    LiveMonitor,
    MetricsServer,
    default_rules,
)
from repro.observability.log import configure_json_logging
from repro.observability.netutil import linger, write_port_file
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias

__all__ = ["main", "run_stream"]


def run_stream(
    system: RBCDSystem,
    workload,
    frames: int,
    interval_s: float = 0.0,
    on_frame=None,
) -> int:
    """Render ``frames`` frames (0 = endless) through ``system``.

    The workload's animation is looped: frame ``i`` samples the scene
    at ``(i * dt) % duration``, with ``dt`` chosen so one loop covers
    ``default_frames`` samples.  Returns the number of frames rendered
    (interruptible with Ctrl-C in endless mode).
    """
    dt = workload.duration_s / max(workload.default_frames, 1)
    config = system.config
    rendered = 0
    try:
        while frames == 0 or rendered < frames:
            t = (rendered * dt) % max(workload.duration_s, dt)
            frame = workload.scene.frame_at(float(t), config)
            result = system.detect_frame(frame)
            rendered += 1
            if on_frame is not None:
                on_frame(rendered, result)
            if interval_s > 0.0:
                time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return rendered


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.monitor",
        description="Stream a benchmark scene with live telemetry "
                    "(OpenMetrics /metrics, /healthz, /snapshot.json).",
    )
    parser.add_argument(
        "--scene", choices=BENCHMARKS, default="cap",
        help="benchmark workload to stream (default: cap)",
    )
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=192)
    parser.add_argument(
        "--detail", type=int, default=1,
        help="mesh tessellation detail (default: 1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: 160x96, detail 1",
    )
    parser.add_argument(
        "--frames", type=int, default=0,
        help="frames to render; 0 streams forever (default: 0)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.0,
        help="seconds to sleep between frames (default: 0)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="tile-executor workers (default: 1)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="HTTP port; 0 binds an ephemeral port (default: 0)",
    )
    parser.add_argument(
        "--port-file", default=None,
        help="write the bound port number to this file once serving",
    )
    parser.add_argument(
        "--linger", type=float, default=0.0,
        help="keep the endpoint up this many seconds after the last "
             "frame (finite --frames only; default: 0)",
    )
    parser.add_argument(
        "--window", type=int, default=120,
        help="sliding-window length in frames (default: 120)",
    )
    parser.add_argument(
        "--json-logs", action="store_true",
        help="emit structured JSON log lines on stderr",
    )
    parser.add_argument(
        "--fail-on-alert", action="store_true",
        help="exit 1 if any watchdog alert fired during the stream",
    )
    parser.add_argument(
        "--max-activity-ratio", type=float,
        default=PAPER_ACTIVITY_ENVELOPE, metavar="R",
        help="watchdog bound on windowed rbcd.activity_ratio "
             "(default: the paper's 0.01 envelope; negative disables)",
    )
    parser.add_argument(
        "--max-overflow-rate", type=float, default=0.05, metavar="R",
        help="watchdog bound on windowed ZEB / FF-Stack overflow rates "
             "(default: 0.05; negative disables)",
    )
    parser.add_argument(
        "--max-joules-per-frame", type=float, default=0.01, metavar="J",
        help="watchdog energy budget per frame (default: 0.01 J; "
             "negative disables)",
    )
    parser.add_argument(
        "--max-frame-ms", type=float, default=None, metavar="MS",
        help="opt-in latency SLO on p95 host frame time (default: off)",
    )
    parser.add_argument(
        "--flight-recorder", default=None, metavar="DIR",
        help="attach an always-on flight recorder; a post-mortem dump "
             "is written to DIR on the first watchdog alert (inspect "
             "it with python -m repro.experiments.postmortem)",
    )
    return parser


def _bound(value: float | None) -> float | None:
    return None if value is None or value < 0.0 else value


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.quick:
        args.width, args.height, args.detail = 160, 96, 1
    if args.json_logs:
        configure_json_logging()

    workload = workload_by_alias(args.scene, detail=args.detail)
    config = GPUConfig().with_screen(args.width, args.height)
    rules = default_rules(
        max_activity_ratio=_bound(args.max_activity_ratio),
        max_overflow_rate=_bound(args.max_overflow_rate),
        max_ffstack_overflow_rate=_bound(args.max_overflow_rate),
        max_joules_per_frame=_bound(args.max_joules_per_frame),
        max_frame_ms=args.max_frame_ms,
    )
    monitor = LiveMonitor(window=args.window, rules=rules)
    recorder = tracer = None
    if args.flight_recorder is not None:
        recorder = FlightRecorder(dump_dir=args.flight_recorder)
        tracer = recorder.attach_tracer()
        recorder.attach_monitor(monitor)

    try:
        with MetricsServer(monitor, host=args.host, port=args.port) as server:
            if args.port_file:
                write_port_file(args.port_file, server.port)
            print(
                f"serving {server.url}  "
                f"(endpoints: /metrics /healthz /snapshot.json)",
                flush=True,
            )
            with RBCDSystem(
                config=config, workers=args.workers, tracer=tracer,
                observers=[monitor],
            ) as system:
                if recorder is not None:
                    recorder.attach_config(system.config)
                rendered = run_stream(
                    system, workload, args.frames, interval_s=args.interval
                )
            if args.frames != 0:
                linger(args.linger)
    finally:
        if recorder is not None:
            recorder.close()

    status = "ok" if monitor.healthy else "failing"
    print(
        f"rendered {rendered} frames of {args.scene!r}: health {status}, "
        f"{len(monitor.alerts)} alert(s)",
        flush=True,
    )
    for alert in monitor.alerts:
        print(f"  {alert.message}", flush=True)
    if args.fail_on_alert and monitor.alerts:
        # Actionable exit diagnostics on stderr: which rule breached,
        # with what window stats behind it, and where the post-mortem
        # evidence landed.
        print(
            f"monitor: FAILING — {len(monitor.alerts)} watchdog "
            f"alert(s) over {rendered} frames of {args.scene!r}",
            file=sys.stderr, flush=True,
        )
        for alert in monitor.alerts:
            print(
                f"  breached rule {alert.rule!r}: {alert.metric} = "
                f"{alert.value:.6g} {alert.op} threshold "
                f"{alert.threshold:.6g} at frame {alert.frame}",
                file=sys.stderr, flush=True,
            )
        for key, value in sorted(monitor.window_values().items()):
            print(f"  window {key} = {value:.6g}", file=sys.stderr, flush=True)
        if recorder is not None and recorder.dump_paths:
            dump = recorder.dump_paths[-1]
            print(f"  post-mortem dump: {dump}", file=sys.stderr, flush=True)
            print(
                f"  inspect with: python -m repro.experiments.postmortem "
                f"{dump}",
                file=sys.stderr, flush=True,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
