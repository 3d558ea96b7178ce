"""Run a benchmark scene as a monitored frame stream.

``python -m repro.experiments.monitor`` drives one workload frame after
frame through an :class:`~repro.core.RBCDSystem` with a
:class:`~repro.observability.live.LiveMonitor` attached, then prints
the stream's health and every watchdog alert::

    $ PYTHONPATH=src python -m repro.experiments.monitor --quick --frames 5
    rendered 5 frames of 'cap': health ok, 0 alert(s)

``--frames 0`` (the default) streams forever, looping the scene's
animation, until Ctrl-C.  ``--fail-on-alert`` turns any watchdog alert
into exit code 1 and prints the breaching rules and the window state
behind them on stderr, which makes the CLI usable as a CI canary::

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
    default_rules,
)
from repro.observability.log import configure_json_logging
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias

__all__ = ["main", "run_stream"]

# --quick preset; it excludes the same flags on the command line.
QUICK_PRESET = {"width": 160, "height": 96, "detail": 1}
_DEFAULTS = {"width": 320, "height": 192, "detail": 1}


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
        description="Stream a benchmark scene through a live monitor "
                    "and report its health and watchdog alerts.",
    )
    parser.add_argument(
        "--scene", choices=BENCHMARKS, default="cap",
        help="benchmark workload to stream (default: cap)",
    )
    parser.add_argument(
        "--width", type=int, default=None,
        help=f"screen width (default: {_DEFAULTS['width']})",
    )
    parser.add_argument(
        "--height", type=int, default=None,
        help=f"screen height (default: {_DEFAULTS['height']})",
    )
    parser.add_argument(
        "--detail", type=int, default=None,
        help=f"mesh tessellation detail (default: {_DEFAULTS['detail']})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: {width}x{height}, detail {detail}; "
             "excludes the three flags above".format(**QUICK_PRESET),
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    preset = QUICK_PRESET if args.quick else _DEFAULTS
    for key, value in preset.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
        elif args.quick:
            parser.error(f"--{key} cannot be combined with --quick")
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
        with RBCDSystem(
            config=config, tracer=tracer, observers=[monitor],
        ) as system:
            if recorder is not None:
                recorder.attach_config(system.config)
            rendered = run_stream(
                system, workload, args.frames, interval_s=args.interval
            )
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
