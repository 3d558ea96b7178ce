"""Load generator for the collision service.

``python -m repro.experiments.loadgen`` spins up a
:class:`~repro.serve.CollisionService`, registers N simulated tenants
(scenes assigned round-robin from the four benchmark workloads, phase
offsets drawn from a fixed seed), drives their frame streams through
the service in a closed loop, and reports what it served::

    $ PYTHONPATH=src python -m repro.experiments.loadgen \\
          --tenants 4 --frames 8 --quick
    served 32 frames for 4 tenants in 8 batches: 0 alert(s)

The loop is **closed**: every tenant submits its next frame only after
the previous batch completed — lockstep batching, zero rejections, and
therefore a *fully deterministic* ``rbcd-serve-bench`` document
(per-tenant counters, serve counters, the global registry).  Host
serving speed is measured by the repository benchmark's
``serve_tenants`` workload (``perfbench/``), not here.

Like ``repro.experiments.bench``, the emitted document is
schema-validated (:func:`validate_serve_bench_document`, ``--check``)
and must reproduce bit-exactly across runs (``--selfcheck`` runs the
workload twice and diffs the documents).  ``--append-history``
appends a one-line ndjson summary to the same trend log bench uses
(``benchmarks/history/HISTORY.ndjson``); serve lines are tagged
``"schema": "rbcd-serve-bench"`` so the two conventions share one
file.

``--flight-recorder DIR`` attaches an always-on
:class:`~repro.observability.FlightRecorder` to the service: per-tenant
ring buffers of spans, snapshots, alerts and rejections, with a
post-mortem dump written to DIR on the first watchdog alert or
admission rejection (inspect with
``python -m repro.experiments.postmortem``).  ``--max-frame-ms`` arms
the per-tenant p95 latency watchdog that such a dump can record.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.experiments.bench import HISTORY_PATH
from repro.gpu.config import GPUConfig
from repro.observability.flightrecorder import FlightRecorder
from repro.observability.live import (
    PAPER_ACTIVITY_ENVELOPE,
    default_rules,
)
from repro.observability.log import configure_json_logging
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias
from repro.serve import CollisionService

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "HISTORY_PATH",
    "TenantPlan",
    "plan_tenants",
    "run_closed_loop",
    "build_document",
    "history_line",
    "append_history",
    "validate_serve_bench_document",
    "main",
]

SCHEMA_NAME = "rbcd-serve-bench"
SCHEMA_VERSION = 3
SUPPORTED_VERSIONS = (3,)

# --quick preset; it excludes the same flags on the command line.
QUICK_PRESET = {"width": 160, "height": 96, "detail": 1}
_DEFAULTS = {"width": 320, "height": 192, "detail": 1}


class TenantPlan:
    """One simulated client: tenant id, scene, seeded phase offset."""

    def __init__(self, tenant: str, scene: str, detail: int, phase: int) -> None:
        self.tenant = tenant
        self.scene = scene
        self.detail = detail
        self.phase = phase
        self.workload = workload_by_alias(scene, detail=detail)

    def frame_at(self, seq: int, config: GPUConfig):
        """The tenant's frame ``seq``: its animation, phase-shifted.

        Deterministic given (scene, detail, phase, seq, config) — the
        basis of both the isolation differential and the cross-run
        determinism gate.
        """
        workload = self.workload
        dt = workload.duration_s / max(workload.default_frames, 1)
        t = ((seq + self.phase) * dt) % max(workload.duration_s, dt)
        return workload.scene.frame_at(float(t), config)


def plan_tenants(count: int, detail: int, seed: int) -> list[TenantPlan]:
    """Round-robin scene assignment with seeded phase offsets."""
    if count < 1:
        raise ValueError("tenant count must be >= 1")
    rng = random.Random(seed)
    plans = []
    for i in range(count):
        scene = BENCHMARKS[i % len(BENCHMARKS)]
        phase = rng.randrange(0, 64)
        plans.append(TenantPlan(f"t{i:02d}-{scene}", scene, detail, phase))
    return plans


def _make_service(
    args_like: Mapping[str, Any], rules, recorder=None,
) -> CollisionService:
    """A service for :func:`run_closed_loop`: it admits every frame."""
    config = GPUConfig().with_screen(
        args_like["width"], args_like["height"]
    )
    return CollisionService(
        base_config=config,
        window=args_like["window"],
        rules=rules,
        max_pending=args_like["max_pending"],
        admit_unhealthy=True,
        recorder=recorder,
    )


def run_closed_loop(
    service: CollisionService,
    plans: Sequence[TenantPlan],
    frames: int,
) -> dict[str, Any]:
    """Lockstep batching: one frame per tenant per batch, ``frames``
    batches.  Every frame is admitted (run this on a service built
    with ``admit_unhealthy=True`` — a watchdog breach must not make
    the counters depend on rule thresholds), so every counter returned
    is deterministic; only ``alerts`` can depend on host time, through
    an armed latency SLO."""
    for plan in plans:
        service.register(plan.tenant)
    config = service.base_config
    served = 0
    for seq in range(frames):
        futures = [
            service.submit(plan.tenant, plan.frame_at(seq, config))
            for plan in plans
        ]
        served += service.drain()
        for future in futures:
            future.result()  # surfaces render errors
    tenants = []
    for plan in plans:
        session = service.session(plan.tenant)
        totals = session.monitor.totals_registry().as_dict()
        tenants.append({
            "tenant": plan.tenant,
            "scene": plan.scene,
            "phase": plan.phase,
            "frames": session.monitor.frames,
            "pairs_total": int(totals.get("gpu.rbcd.collision_pairs_emitted", 0)),
            "counters": totals,
            "serve": session.serve_counters.as_dict(),
        })
    return {
        "frames_served": served,
        "batches": service.batches,
        "tenants": tenants,
        "global_counters": service.global_registry().as_dict(),
        "alerts": {
            tenant: [a.as_dict() for a in alerts]
            for tenant, alerts in service.alerts().items()
        },
    }


# -- bench document ----------------------------------------------------------


def build_document(
    args_like: Mapping[str, Any],
    workload: Mapping[str, Any],
) -> dict[str, Any]:
    """Assemble the ``rbcd-serve-bench`` v3 document from a
    :func:`run_closed_loop` outcome; every field is deterministic."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": {
            "tenants": args_like["tenants"],
            "frames": args_like["frames"],
            "width": args_like["width"],
            "height": args_like["height"],
            "detail": args_like["detail"],
            "window": args_like["window"],
            "max_pending": args_like["max_pending"],
            "seed": args_like["seed"],
            "max_frame_ms": args_like["max_frame_ms"],
        },
        "workload": {
            "frames_served": workload["frames_served"],
            "batches": workload["batches"],
            "tenants": workload["tenants"],
            "global_counters": workload["global_counters"],
        },
    }


def history_line(doc: Mapping[str, Any]) -> str:
    """One ndjson line summarizing a serve-bench document.

    Same convention as ``repro.experiments.bench.history_line`` — a
    sorted-key JSON object per run, no timestamps (append order *is*
    the history) — tagged ``"schema": "rbcd-serve-bench"`` so serve
    lines and scene-bench lines can share one trend file.  Carries the
    workload totals.
    """
    config = doc.get("config", {})
    workload = doc.get("workload", {})
    record: dict[str, Any] = {
        "schema": doc.get("schema"),
        "version": doc.get("version"),
        "config": {
            key: config.get(key)
            for key in ("tenants", "frames", "width", "height", "detail",
                        "max_frame_ms")
        },
        "workload": {
            "frames_served": workload.get("frames_served"),
            "batches": workload.get("batches"),
            "pairs_total": sum(
                record.get("pairs_total", 0)
                for record in workload.get("tenants", [])
                if isinstance(record, Mapping)
            ),
        },
    }
    return json.dumps(record, sort_keys=True)


def append_history(doc: Mapping[str, Any], path: Path) -> Path:
    """Append :func:`history_line` to ``path`` (created with parents)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(history_line(doc) + "\n")
    return path


def _fail(errors: list[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _check_number(errors, path, value, minimum=0.0) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(errors, path, f"expected a number, got {value!r}")
    elif value < minimum:
        _fail(errors, path, f"expected >= {minimum}, got {value!r}")


def _check_int(errors, path, value, minimum=0) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(errors, path, f"expected an int, got {value!r}")
    elif value < minimum:
        _fail(errors, path, f"expected >= {minimum}, got {value!r}")


def _check_tenant(errors, path, record, frames) -> None:
    if not isinstance(record, Mapping):
        _fail(errors, path, f"expected a mapping, got {type(record).__name__}")
        return
    for key in ("tenant", "scene"):
        if not isinstance(record.get(key), str) or not record.get(key):
            _fail(errors, f"{path}.{key}", "expected a non-empty string")
    if record.get("scene") not in BENCHMARKS:
        _fail(errors, f"{path}.scene", f"unknown scene {record.get('scene')!r}")
    _check_int(errors, f"{path}.phase", record.get("phase"))
    _check_int(errors, f"{path}.frames", record.get("frames"))
    if record.get("frames") != frames:
        _fail(
            errors, f"{path}.frames",
            f"expected config.frames={frames}, got {record.get('frames')!r}",
        )
    _check_int(errors, f"{path}.pairs_total", record.get("pairs_total"))
    counters = record.get("counters")
    if not isinstance(counters, Mapping) or not counters:
        _fail(errors, f"{path}.counters", "expected a non-empty mapping")
    else:
        for name, value in counters.items():
            _check_number(errors, f"{path}.counters[{name}]", value)
    serve = record.get("serve")
    if not isinstance(serve, Mapping):
        _fail(errors, f"{path}.serve", "expected a mapping")
    else:
        _check_int(errors, f"{path}.serve[serve.frames_submitted]",
                   serve.get("serve.frames_submitted"))
        if serve.get("serve.frames_rejected") != 0:
            _fail(
                errors, f"{path}.serve[serve.frames_rejected]",
                "closed-loop workload must admit every frame",
            )


def validate_serve_bench_document(doc: Any) -> None:
    """Strict structural validation; raises ValueError listing problems."""
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        raise ValueError(
            f"serve-bench document must be a mapping, got {type(doc).__name__}"
        )
    if doc.get("schema") != SCHEMA_NAME:
        _fail(errors, "schema",
              f"expected {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    version = doc.get("version")
    if version not in SUPPORTED_VERSIONS:
        _fail(errors, "version",
              f"expected one of {SUPPORTED_VERSIONS}, got {version!r}")
    config = doc.get("config")
    if not isinstance(config, Mapping):
        _fail(errors, "config", "expected a mapping")
        config = {}
    _check_int(errors, "config.tenants", config.get("tenants"), minimum=1)
    _check_int(errors, "config.frames", config.get("frames"), minimum=1)
    _check_int(errors, "config.width", config.get("width"), minimum=1)
    _check_int(errors, "config.height", config.get("height"), minimum=1)
    _check_int(errors, "config.seed", config.get("seed"))
    workload = doc.get("workload")
    if not isinstance(workload, Mapping):
        _fail(errors, "workload", "expected a mapping")
        workload = {}
    _check_int(errors, "workload.frames_served",
               workload.get("frames_served"))
    _check_int(errors, "workload.batches", workload.get("batches"))
    tenants = workload.get("tenants")
    if not isinstance(tenants, list):
        _fail(errors, "workload.tenants", "expected a list")
        tenants = []
    if isinstance(config.get("tenants"), int) and len(tenants) != config["tenants"]:
        _fail(errors, "workload.tenants",
              f"expected {config['tenants']} records, got {len(tenants)}")
    seen = set()
    for i, record in enumerate(tenants):
        _check_tenant(errors, f"workload.tenants[{i}]", record,
                      config.get("frames"))
        if isinstance(record, Mapping):
            name = record.get("tenant")
            if name in seen:
                _fail(errors, f"workload.tenants[{i}].tenant",
                      f"duplicate tenant {name!r}")
            seen.add(name)
    counters = workload.get("global_counters")
    if not isinstance(counters, Mapping) or not counters:
        _fail(errors, "workload.global_counters",
              "expected a non-empty mapping")
    if errors:
        raise ValueError(
            "invalid rbcd-serve-bench document:\n  " + "\n  ".join(errors)
        )


# -- CLI ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.loadgen",
        description="Drive N simulated tenants through the collision "
                    "service in a closed loop.",
    )
    parser.add_argument(
        "--tenants", type=int, default=4,
        help="simulated tenant streams (default: 4)",
    )
    parser.add_argument(
        "--frames", type=int, default=8,
        help="frames per tenant (default: 8)",
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
        "--seed", type=int, default=0,
        help="seed for tenant phase offsets (default: 0)",
    )
    parser.add_argument(
        "--window", type=int, default=64,
        help="per-tenant sliding-window length (default: 64)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=8,
        help="admission backlog bound per tenant (default: 8)",
    )
    parser.add_argument(
        "--json-logs", action="store_true",
        help="emit structured JSON log lines on stderr",
    )
    parser.add_argument(
        "--fail-on-alert", action="store_true",
        help="exit 1 if any tenant watchdog alert fired",
    )
    parser.add_argument(
        "--max-activity-ratio", type=float,
        default=PAPER_ACTIVITY_ENVELOPE, metavar="R",
        help="watchdog bound on windowed rbcd.activity_ratio "
             "(default: the paper's 0.01 envelope; negative disables)",
    )
    parser.add_argument(
        "--max-overflow-rate", type=float, default=0.05, metavar="R",
        help="watchdog bound on windowed overflow rates "
             "(default: 0.05; negative disables)",
    )
    parser.add_argument(
        "--max-joules-per-frame", type=float, default=0.01, metavar="J",
        help="watchdog energy budget per frame (default: 0.01 J; "
             "negative disables)",
    )
    parser.add_argument(
        "--max-frame-ms", type=float, default=None, metavar="MS",
        help="p95 latency SLO watchdog per tenant (default: off)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write the rbcd-serve-bench JSON document here",
    )
    parser.add_argument(
        "--append-history", nargs="?", type=Path, const=HISTORY_PATH,
        default=None, metavar="PATH",
        help="append a one-line ndjson summary to the shared trend log "
             f"(default file: {HISTORY_PATH})",
    )
    parser.add_argument(
        "--flight-recorder", default=None, metavar="DIR",
        help="attach an always-on flight recorder to the service; a "
             "post-mortem dump is written to DIR on the first watchdog "
             "alert or admission rejection (inspect it with "
             "python -m repro.experiments.postmortem)",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="PATH",
        help="validate an existing document and exit",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the workload twice and require the two documents "
             "to match bit-exactly",
    )
    return parser


def _bound(value: float | None) -> float | None:
    return None if value is None or value < 0.0 else value


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.check is not None:
        try:
            doc = json.loads(args.check.read_text(encoding="utf-8"))
            validate_serve_bench_document(doc)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"FAIL {args.check}: {exc}", file=sys.stderr)
            return 1
        print(f"OK {args.check}: valid {SCHEMA_NAME} v{doc['version']} "
              f"({doc['config']['tenants']} tenants)")
        return 0
    preset = QUICK_PRESET if args.quick else _DEFAULTS
    for key, value in preset.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
        elif args.quick:
            parser.error(f"--{key} cannot be combined with --quick")
    if args.json_logs:
        configure_json_logging()

    args_like = {
        "tenants": args.tenants, "frames": args.frames,
        "width": args.width, "height": args.height, "detail": args.detail,
        "window": args.window, "max_pending": args.max_pending,
        "seed": args.seed, "max_frame_ms": args.max_frame_ms,
    }
    rules = default_rules(
        max_activity_ratio=_bound(args.max_activity_ratio),
        max_overflow_rate=_bound(args.max_overflow_rate),
        max_ffstack_overflow_rate=_bound(args.max_overflow_rate),
        max_joules_per_frame=_bound(args.max_joules_per_frame),
        max_frame_ms=args.max_frame_ms,
    )

    def plans():
        return plan_tenants(args.tenants, args.detail, args.seed)

    recorder = None
    if args.flight_recorder is not None:
        recorder = FlightRecorder(dump_dir=args.flight_recorder)

    try:
        with _make_service(args_like, rules, recorder=recorder) as service:
            workload = run_closed_loop(service, plans(), args.frames)
        alerts_total = sum(len(a) for a in workload["alerts"].values())
        print(
            f"served {workload['frames_served']} frames for "
            f"{len(workload['tenants'])} tenants in {workload['batches']} "
            f"batches: {alerts_total} alert(s)",
            flush=True,
        )
        doc = build_document(args_like, workload)
        if args.selfcheck:
            with _make_service(args_like, rules) as service:
                repeat = run_closed_loop(service, plans(), args.frames)
            if doc != build_document(args_like, repeat):
                print("DETERMINISM FAILURE: documents differ across runs",
                      file=sys.stderr)
                return 1
            print("selfcheck OK: documents bit-identical across runs",
                  flush=True)
        validate_serve_bench_document(doc)
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {args.output}", flush=True)
        if args.append_history is not None:
            append_history(doc, args.append_history)
            print(f"appended history line to {args.append_history}",
                  flush=True)
    finally:
        if recorder is not None:
            recorder.close()

    if args.fail_on_alert and alerts_total:
        print(
            f"loadgen: FAILING — {alerts_total} watchdog alert(s) across "
            f"{args.tenants} tenant(s)",
            file=sys.stderr, flush=True,
        )
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
