"""Load generator + saturation bench for the collision service.

``python -m repro.experiments.loadgen`` spins up a
:class:`~repro.serve.CollisionService`, registers N simulated tenants
(scenes assigned round-robin from the four benchmark workloads, phase
offsets drawn from a fixed seed), drives their frame streams through
the service, and serves the labelled telemetry over
HTTP while the run lasts::

    $ PYTHONPATH=src python -m repro.experiments.loadgen \\
          --tenants 4 --frames 8 --quick
    serving http://127.0.0.1:40213  (endpoints: /metrics /healthz ...)
    served 32 frames for 4 tenants in 2 batches/tenant ...

Two driving modes:

* **closed-loop** (the default): every tenant submits its next frame
  only after the previous batch completed — lockstep batching, zero
  rejections, and therefore *fully deterministic* per-tenant counters
  (the part of the bench document gated for cross-run determinism).
* **open-loop** (``--rate R``): client threads submit at a target
  per-tenant frame rate while a dispatcher thread batches; backlog
  and unhealthy-tenant rejections are counted, and all wall-clock
  figures are statistical.

``--saturation`` ramps the offered rate across ``--rates`` steps (a
fresh service per step, p95 latency SLO armed via ``--max-frame-ms``)
and records the highest rate sustained with zero SLO alerts — the
``max_sustained_fps`` headline of the ``rbcd-serve-bench`` document,
the serving number future performance PRs move.

Like ``repro.experiments.bench``, the emitted document is
schema-validated (:func:`validate_serve_bench_document`) and the
deterministic ``workload`` section must reproduce bit-exactly across
runs (``--selfcheck`` runs it twice and diffs).  ``--append-history``
appends a one-line ndjson summary to the same trend log bench uses
(``benchmarks/history/HISTORY.ndjson``); serve lines are tagged
``"schema": "rbcd-serve-bench"`` so the two conventions share one
file.

``--flight-recorder DIR`` attaches an always-on
:class:`~repro.observability.FlightRecorder` to the service: per-tenant
ring buffers of spans, snapshots, alerts and rejections, with a
post-mortem dump written to DIR on the first watchdog alert or
admission rejection (inspect with
``python -m repro.experiments.postmortem``).  One recorder spans the
whole run, including every saturation step.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.experiments.bench import HISTORY_PATH
from repro.gpu.config import GPUConfig
from repro.observability.flightrecorder import FlightRecorder
from repro.observability.live import (
    PAPER_ACTIVITY_ENVELOPE,
    MetricsServer,
    default_rules,
)
from repro.observability.log import configure_json_logging
from repro.observability.netutil import linger, write_port_file
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias
from repro.serve import AdmissionError, CollisionService

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "HISTORY_PATH",
    "TenantPlan",
    "plan_tenants",
    "run_closed_loop",
    "run_open_loop",
    "run_saturation",
    "build_document",
    "history_line",
    "append_history",
    "validate_serve_bench_document",
    "main",
]

SCHEMA_NAME = "rbcd-serve-bench"
SCHEMA_VERSION = 2
SUPPORTED_VERSIONS = (2,)


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
    args_like: Mapping[str, Any], rules, admit_unhealthy: bool = False,
    recorder=None,
) -> CollisionService:
    config = GPUConfig().with_screen(
        args_like["width"], args_like["height"]
    )
    return CollisionService(
        base_config=config,
        window=args_like["window"],
        rules=rules,
        max_pending=args_like["max_pending"],
        admit_unhealthy=admit_unhealthy,
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
    the gated counters depend on rule thresholds), so everything
    returned except wall time is deterministic."""
    for plan in plans:
        service.register(plan.tenant)
    config = service.base_config
    t0 = time.perf_counter()
    served = 0
    for seq in range(frames):
        futures = [
            service.submit(plan.tenant, plan.frame_at(seq, config))
            for plan in plans
        ]
        served += service.drain()
        for future in futures:
            future.result()  # surfaces render errors
    wall_s = time.perf_counter() - t0
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
        "mode": "closed-loop",
        "frames_served": served,
        "batches": service.batches,
        "wall_s": wall_s,
        "tenants": tenants,
        "global_counters": service.global_registry().as_dict(),
        "alerts": {
            tenant: [a.as_dict() for a in alerts]
            for tenant, alerts in service.alerts().items()
        },
    }


def run_open_loop(
    service: CollisionService,
    plans: Sequence[TenantPlan],
    frames: int,
    rate_hz: float,
) -> dict[str, Any]:
    """Client threads at a target per-tenant frame rate.

    A dispatcher thread batches continuously; rejected frames
    (backlog / unhealthy) are dropped and counted.  All timing-derived
    numbers are statistical — only suitable for the non-gated sections
    of the bench document.
    """
    if rate_hz <= 0.0:
        raise ValueError("open-loop rate must be > 0")
    for plan in plans:
        service.register(plan.tenant)
    config = service.base_config
    interval = 1.0 / rate_hz
    stop = threading.Event()
    rejected = {plan.tenant: 0 for plan in plans}

    def dispatcher() -> None:
        while not stop.is_set():
            if service.step() == 0:
                time.sleep(interval / 8.0)
        service.drain()

    def client(plan: TenantPlan) -> None:
        next_due = time.perf_counter()
        for seq in range(frames):
            next_due += interval
            try:
                service.submit(plan.tenant, plan.frame_at(seq, config))
            except AdmissionError:
                rejected[plan.tenant] += 1
            delay = next_due - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)

    t0 = time.perf_counter()
    dispatch_thread = threading.Thread(target=dispatcher, daemon=True)
    dispatch_thread.start()
    client_threads = [
        threading.Thread(target=client, args=(plan,), daemon=True)
        for plan in plans
    ]
    for thread in client_threads:
        thread.start()
    for thread in client_threads:
        thread.join()
    stop.set()
    dispatch_thread.join(timeout=30.0)
    wall_s = time.perf_counter() - t0

    served = sum(
        service.session(plan.tenant).monitor.frames for plan in plans
    )
    p95 = []
    for plan in plans:
        values = service.session(plan.tenant).monitor.window_values()
        if "quantile.frame.wall_ms.p95" in values:
            p95.append(values["quantile.frame.wall_ms.p95"])
    alerts = service.alerts()
    return {
        "mode": "open-loop",
        "offered_rate_hz": rate_hz,
        "frames_offered": frames * len(plans),
        "frames_served": served,
        "frames_rejected": sum(rejected.values()),
        "rejected_by_tenant": rejected,
        "achieved_fps": served / wall_s if wall_s > 0.0 else 0.0,
        "wall_s": wall_s,
        "p95_wall_ms_max": max(p95) if p95 else 0.0,
        "alerts_total": sum(len(a) for a in alerts.values()),
        "slo_alerts": sum(
            1 for tenant_alerts in alerts.values()
            for alert in tenant_alerts
            if alert.rule == "frame-latency-slo"
        ),
    }


def run_saturation(
    args_like: Mapping[str, Any],
    plans_factory,
    rates: Sequence[float],
    rules_factory,
    recorder=None,
) -> dict[str, Any]:
    """Ramp the offered per-tenant rate; find the sustained maximum.

    A fresh service (and fresh tenant monitors) per step keeps steps
    independent.  A step is *sustained* when it finishes with zero
    latency-SLO alerts and zero rejections.  ``max_sustained_fps`` is
    the aggregate served rate of the fastest sustained step (0.0 when
    even the slowest step breaches — a valid, visible result).

    The optional flight ``recorder`` is shared across every step (its
    dump index is monotonic, so step dumps never collide); each step's
    fresh monitors re-attach to the same per-tenant rings.
    """
    steps = []
    max_sustained = 0.0
    for rate in rates:
        with _make_service(
            args_like, rules_factory(), recorder=recorder
        ) as service:
            plans = plans_factory()
            outcome = run_open_loop(
                service, plans, args_like["frames"], rate
            )
        sustained = (
            outcome["slo_alerts"] == 0 and outcome["frames_rejected"] == 0
        )
        steps.append({
            "offered_rate_hz": rate,
            "achieved_fps": outcome["achieved_fps"],
            "frames_served": outcome["frames_served"],
            "frames_rejected": outcome["frames_rejected"],
            "p95_wall_ms_max": outcome["p95_wall_ms_max"],
            "slo_alerts": outcome["slo_alerts"],
            "sustained": sustained,
        })
        if sustained:
            max_sustained = max(max_sustained, outcome["achieved_fps"])
        else:
            break  # the ramp found the knee; higher rates only degrade
    return {"steps": steps, "max_sustained_fps": max_sustained}


# -- bench document ----------------------------------------------------------


def build_document(
    args_like: Mapping[str, Any],
    workload: Mapping[str, Any],
    saturation: Mapping[str, Any] | None,
) -> dict[str, Any]:
    """Assemble the ``rbcd-serve-bench`` v2 document.

    ``workload`` (closed-loop, deterministic counters) is the section
    the cross-run determinism gate covers; ``saturation`` is
    wall-clock-derived and statistical by construction.
    """
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
        "timing": {  # statistical: excluded from the determinism gate
            "wall_s": workload["wall_s"],
        },
        "saturation": dict(saturation) if saturation is not None else None,
    }


def deterministic_sections(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The slice of a document the cross-run determinism gate covers."""
    return {"config": doc["config"], "workload": doc["workload"]}


def history_line(doc: Mapping[str, Any]) -> str:
    """One ndjson line summarizing a serve-bench document.

    Same convention as ``repro.experiments.bench.history_line`` — a
    sorted-key JSON object per run, no timestamps (append order *is*
    the history) — tagged ``"schema": "rbcd-serve-bench"`` so serve
    lines and scene-bench lines can share one trend file.  Carries the
    workload totals and the ``max_sustained_fps`` headline, the serving
    number future performance PRs move.
    """
    config = doc.get("config", {})
    workload = doc.get("workload", {})
    saturation = doc.get("saturation")
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
        "saturation": None,
    }
    if isinstance(saturation, Mapping):
        record["saturation"] = {
            "max_sustained_fps": saturation.get("max_sustained_fps"),
            "steps": len(saturation.get("steps", [])),
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


def _check_saturation(errors, saturation) -> None:
    if not isinstance(saturation, Mapping):
        _fail(errors, "saturation", "expected a mapping or null")
        return
    steps = saturation.get("steps")
    if not isinstance(steps, list) or not steps:
        _fail(errors, "saturation.steps", "expected a non-empty list")
        return
    previous_rate = 0.0
    for i, step in enumerate(steps):
        path = f"saturation.steps[{i}]"
        if not isinstance(step, Mapping):
            _fail(errors, path, "expected a mapping")
            continue
        _check_number(errors, f"{path}.offered_rate_hz",
                      step.get("offered_rate_hz"), minimum=1e-9)
        rate = step.get("offered_rate_hz")
        if isinstance(rate, (int, float)) and rate <= previous_rate:
            _fail(errors, f"{path}.offered_rate_hz",
                  "ramp rates must be strictly increasing")
        if isinstance(rate, (int, float)):
            previous_rate = rate
        _check_number(errors, f"{path}.achieved_fps", step.get("achieved_fps"))
        _check_number(errors, f"{path}.p95_wall_ms_max",
                      step.get("p95_wall_ms_max"))
        _check_int(errors, f"{path}.frames_served", step.get("frames_served"))
        _check_int(errors, f"{path}.frames_rejected",
                   step.get("frames_rejected"))
        _check_int(errors, f"{path}.slo_alerts", step.get("slo_alerts"))
        if not isinstance(step.get("sustained"), bool):
            _fail(errors, f"{path}.sustained", "expected a bool")
    for i, step in enumerate(steps[:-1]):
        if isinstance(step, Mapping) and step.get("sustained") is False:
            _fail(errors, f"saturation.steps[{i}]",
                  "an unsustained step must end the ramp")
    _check_number(errors, "saturation.max_sustained_fps",
                  saturation.get("max_sustained_fps"))
    sustained_fps = [
        step.get("achieved_fps") for step in steps
        if isinstance(step, Mapping) and step.get("sustained") is True
        and isinstance(step.get("achieved_fps"), (int, float))
    ]
    expected = max(sustained_fps) if sustained_fps else 0.0
    if saturation.get("max_sustained_fps") != expected:
        _fail(errors, "saturation.max_sustained_fps",
              f"expected max over sustained steps ({expected!r}), "
              f"got {saturation.get('max_sustained_fps')!r}")


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
    timing = doc.get("timing")
    if not isinstance(timing, Mapping):
        _fail(errors, "timing", "expected a mapping")
    else:
        _check_number(errors, "timing.wall_s", timing.get("wall_s"))
    if doc.get("saturation") is not None:
        _check_saturation(errors, doc["saturation"])
    if errors:
        raise ValueError(
            "invalid rbcd-serve-bench document:\n  " + "\n  ".join(errors)
        )


# -- CLI ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.loadgen",
        description="Drive N simulated tenants through the collision "
                    "service; optionally ramp to saturation.",
    )
    parser.add_argument(
        "--tenants", type=int, default=4,
        help="simulated tenant streams (default: 4)",
    )
    parser.add_argument(
        "--frames", type=int, default=8,
        help="frames per tenant (per saturation step; default: 8)",
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
        "--rate", type=float, default=None, metavar="HZ",
        help="open-loop per-tenant frame rate; omitted = closed-loop "
             "lockstep (deterministic)",
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
        help="keep the endpoint up this many seconds after the run",
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
        help="p95 latency SLO per tenant (default: off; required "
             "for --saturation)",
    )
    parser.add_argument(
        "--saturation", action="store_true",
        help="ramp the offered rate and record max sustained fps",
    )
    parser.add_argument(
        "--rates", default="10,20,40,80,160", metavar="HZ,HZ,...",
        help="saturation ramp: per-tenant rates to try, ascending "
             "(default: 10,20,40,80,160)",
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
        help="run the deterministic workload twice and require the "
             "gated sections to match bit-exactly",
    )
    return parser


def _bound(value: float | None) -> float | None:
    return None if value is None or value < 0.0 else value


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.check is not None:
        doc = json.loads(args.check.read_text(encoding="utf-8"))
        validate_serve_bench_document(doc)
        print(f"OK {args.check}: valid {SCHEMA_NAME} v{doc['version']} "
              f"({doc['config']['tenants']} tenants)")
        return 0
    if args.quick:
        args.width, args.height, args.detail = 160, 96, 1
    if args.json_logs:
        configure_json_logging()
    if args.saturation and args.max_frame_ms is None:
        print("--saturation requires --max-frame-ms (the p95 SLO)",
              file=sys.stderr)
        return 2
    if args.saturation and args.rate is not None:
        print("--saturation supplies its own --rates ramp; drop --rate",
              file=sys.stderr)
        return 2

    args_like = {
        "tenants": args.tenants, "frames": args.frames,
        "width": args.width, "height": args.height, "detail": args.detail,
        "window": args.window, "max_pending": args.max_pending,
        "seed": args.seed, "max_frame_ms": args.max_frame_ms,
    }

    def rules_factory():
        return default_rules(
            max_activity_ratio=_bound(args.max_activity_ratio),
            max_overflow_rate=_bound(args.max_overflow_rate),
            max_ffstack_overflow_rate=_bound(args.max_overflow_rate),
            max_joules_per_frame=_bound(args.max_joules_per_frame),
            max_frame_ms=args.max_frame_ms,
        )

    def plans_factory():
        return plan_tenants(args.tenants, args.detail, args.seed)

    recorder = None
    if args.flight_recorder is not None:
        recorder = FlightRecorder(dump_dir=args.flight_recorder)

    def run_workload() -> dict[str, Any]:
        closed_loop = args.rate is None
        with _make_service(
            args_like, rules_factory(), admit_unhealthy=closed_loop,
            recorder=recorder,
        ) as service:
            server = MetricsServer(
                service, host=args.host, port=args.port
            ).start()
            try:
                if args.port_file:
                    write_port_file(args.port_file, server.port)
                print(
                    f"serving {server.url}  (endpoints: /metrics /healthz "
                    f"/healthz/<tenant> /snapshot.json)",
                    flush=True,
                )
                if args.rate is not None:
                    outcome = run_open_loop(
                        service, plans_factory(), args.frames, args.rate
                    )
                else:
                    outcome = run_closed_loop(
                        service, plans_factory(), args.frames
                    )
                linger(args.linger)
            finally:
                server.stop()
        return outcome

    alerts_total = 0
    saturation = None
    try:
        if args.rate is not None and not args.saturation:
            outcome = run_workload()
            print(
                f"open-loop at {args.rate:g} Hz/tenant: served "
                f"{outcome['frames_served']}/{outcome['frames_offered']} "
                f"frames, {outcome['frames_rejected']} rejected, "
                f"{outcome['achieved_fps']:.1f} fps aggregate, "
                f"{outcome['alerts_total']} alert(s)",
                flush=True,
            )
            alerts_total = outcome["alerts_total"]
            doc = None
        else:
            workload = run_workload()
            alerts_total = sum(len(a) for a in workload["alerts"].values())
            print(
                f"served {workload['frames_served']} frames for "
                f"{len(workload['tenants'])} tenants in {workload['batches']} "
                f"batches ({workload['wall_s']:.2f}s): {alerts_total} alert(s)",
                flush=True,
            )
            if args.selfcheck:
                with _make_service(
                    args_like, rules_factory(), admit_unhealthy=True
                ) as service:
                    repeat = run_closed_loop(
                        service, plans_factory(), args.frames
                    )
                first = build_document(args_like, workload, None)
                second = build_document(args_like, repeat, None)
                if (deterministic_sections(first)
                        != deterministic_sections(second)):
                    print("DETERMINISM FAILURE: gated sections differ across "
                          "runs", file=sys.stderr)
                    return 1
                print("selfcheck OK: gated sections bit-identical across "
                      "runs", flush=True)
            if args.saturation:
                rates = [float(r) for r in args.rates.split(",") if r.strip()]
                if rates != sorted(rates) or len(set(rates)) != len(rates):
                    print("--rates must be strictly ascending",
                          file=sys.stderr)
                    return 2
                saturation = run_saturation(
                    args_like, plans_factory, rates, rules_factory,
                    recorder=recorder,
                )
                print(
                    f"saturation: max sustained "
                    f"{saturation['max_sustained_fps']:.1f} fps aggregate "
                    f"over {len(saturation['steps'])} step(s)",
                    flush=True,
                )
            doc = build_document(args_like, workload, saturation)
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
