"""Benchmark harness: traced, repeated, energy-priced runs + gating.

``python -m repro.experiments.bench`` renders each benchmark workload
through a traced :class:`~repro.core.RBCDSystem` and writes
``BENCH_rbcd.json``.  Since schema v2 the harness is a regression
instrument, not just a reporter:

* ``--runs N`` repeats every scene N times and records per-stage
  min/median/max wall time with a bootstrap confidence interval (and
  the raw per-run samples, so a later gate can re-test significance);
* every scene carries a modelled **energy** section — the
  Figure-10/11-style per-component joules from
  :class:`~repro.energy.report.EnergyAccount` plus the energy-delay
  product — and the merged counters include the ``energy.*`` namespace;
* ``--baseline FILE`` compares the fresh document against a stored
  baseline (``benchmarks/baselines/*.json``) with
  :func:`repro.observability.regress.compare_documents`; ``--gate``
  turns statistically significant wall regressions or *any*
  deterministic regression (cycles, DRAM bytes, joules, EDP) into a
  non-zero exit;
* ``--profile`` swaps in a
  :class:`~repro.observability.profile.ProfilingTracer` so exported
  traces carry per-stage cProfile hotspots (such documents are marked
  and refused as gate baselines).

The document layout (checked by :func:`validate_bench_document`):

.. code-block:: text

    {
      "schema": "rbcd-bench",          # fixed discriminator
      "version": 6,
      "config": {width, height, frames, detail, quick, runs, profile,
                 kernel_backend, broad_phase,      # (schema v4)
                 tile_cache,                       # (schema v5)
                 tile_profile},                    # (schema v6)
      "stats": {bootstrap_resamples, confidence},
      "scenes": {
        "<alias>": {
          "frames": N, "runs": R,
          "stages": {                  # one entry per span name
            "<stage>": {count, cycles, wall_ms_median, wall_ms_total,
                        wall_ms_min, wall_ms_max, wall_ms_ci95,
                        wall_ms_runs}
          },
          "totals": {fragments_produced, pair_records_written,
                     gpu_cycles, colliding_pairs},
          "throughput": {wall_s, fragments_per_s, pairs_per_s},
          "counters": {"<name>": value},  # merged CounterRegistry
          "energy": {gpu: {...}, rbcd: {...},   # joules per component
                     total_j, delay_s, edp_js},
          "cases": {disjoint, crossing, nested,     # Figure-5 histogram
                    self_filtered, evidence_records},  # (schema v3)
          "tilecache": {enabled, lookups, hits, misses,   # (schema v5)
                        collisions, stores, hit_rate,
                        cycles_saved, signature_cycles,
                        joules_saved, signature_j,
                        effective_gpu_cycles, effective_total_j,
                        per_frame_hits, per_frame_lookups},
          "tile_profile": {enabled,                     # (schema v6)
                           tiles_x, tiles_y, frames,    # when enabled
                           cycles, energy_j, activity,  # flat per-tile
                           hits, lookups}               # grids
        }
      }
    }

Wall-time semantics: a stage's sample is its summed wall time within
one run; ``wall_ms_median``/``min``/``max`` and the CI are over those
per-run samples, ``wall_ms_total`` sums them across runs.  Everything
except wall time is deterministic and asserted identical across runs.

Schema v4 adds the active **kernel backend** (``--kernel-backend``,
resolved through :mod:`repro.gpu.kernels` and threaded into the GPU
config) and the configured software **broad phase** (``--broad-phase``)
to the config block.  All backends are bit-identical, so only wall
times may move between them — but wall time is exactly what the gate
tests, so documents produced under different backends must never gate
against each other silently; recording both keys makes the regress
layer refuse such comparisons.

Schema v5 adds the **cross-frame tile cache**
(:mod:`repro.gpu.tilecache`, ``--tile-cache``): the config block gains
``tile_cache`` and every scene gains a ``tilecache`` block with the
hit/skip histograms (``per_frame_hits``/``per_frame_lookups``), the
modelled savings, and the *effective* cycle/joule totals (reported
total minus savings plus signature overhead).  Replay is exact, so all
v4-era numbers are identical with the cache on or off; only the new
block moves.  The validator accepts v4 documents too (additive change),
but the regress layer treats ``tile_cache`` as a config key — a v4
baseline (implicitly cache-off) gates cleanly against a cache-off v5
run and refuses a cache-on one.

Schema v6 adds **per-tile spatial profiles**
(:class:`~repro.observability.tileprofile.TileProfiler`,
``--tile-profile``): the config block gains ``tile_profile`` and every
scene gains a ``tile_profile`` block with flat per-tile
cycle/energy/activity/cache-hit grids.  Profiling is strictly
observational (differential-tested), so all other numbers are
identical with it on or off; the regress layer treats ``tile_profile``
as a config key like ``tile_cache``, so profiled and unprofiled
documents never gate against each other silently.  The grids feed the
regression **attribution** engine
(:mod:`repro.observability.attribution`): ``--explain`` prints the
top-k attributed causes when ``--gate`` fails (``--explain-json``
additionally writes the full attribution report for CI artifacts), and
every gate failure emits a machine-greppable ``GATE-FAIL`` line.

``--append-history`` appends a one-line ndjson summary per run to
``benchmarks/history/HISTORY.ndjson`` (or a given file), building the
longitudinal record the attribution workflow starts from.

``--quick`` shrinks the run (160x96, 2 frames, detail 1) for CI smoke
jobs; ``--check FILE`` validates an existing document and exits, so CI
can assert the artifact it just produced is well-formed without any
third-party schema library.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from typing import Any, Mapping, Sequence

from repro.core import RBCDSystem
from repro.energy.report import FrameEnergyReport
from repro.gpu.config import GPUConfig
from repro.gpu.kernels import backend_names, get_backend as get_kernel_backend
from repro.observability.counters import CounterRegistry
from repro.observability.export import write_chrome_trace, write_ndjson
from repro.observability.profile import ProfilingTracer
from repro.observability.provenance import ProvenanceRecorder
from repro.observability.attribution import attribute_documents
from repro.observability.regress import GatePolicy, GateReport, compare_documents
from repro.observability.stats import bootstrap_ci
from repro.observability.tileprofile import GRID_NAMES, TileProfiler
from repro.observability.tracer import Tracer
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "REQUIRED_STAGES",
    "BOOTSTRAP_RESAMPLES",
    "CONFIDENCE",
    "HISTORY_PATH",
    "run_bench",
    "run_scene",
    "stage_summary",
    "aggregate_stage_runs",
    "gate_against_baseline",
    "validate_bench_document",
    "history_line",
    "append_history",
    "main",
]

SCHEMA_NAME = "rbcd-bench"
SCHEMA_VERSION = 6
# Older schema versions the validator still accepts: v5 and v6 are
# purely additive over v4, so stored v4/v5 baselines remain valid
# documents (whether they may *gate* against a v6 run is the regress
# layer's call, via the config keys).
SUPPORTED_VERSIONS = (4, 5, 6)

# Default history file for --append-history (repo-relative).
HISTORY_PATH = Path("benchmarks/history/HISTORY.ndjson")

# Per-scene "cases" keys (schema v3): the Figure-5 interference-case
# histogram from the provenance recorder, deterministic per scene.
_CASE_KEYS = (
    "disjoint", "crossing", "nested", "self_filtered", "evidence_records",
)

# Stage spans every traced frame is guaranteed to emit; their absence
# in a bench document means the run (or the tracer wiring) is broken.
REQUIRED_STAGES = ("frame", "geometry", "raster", "rbcd", "schedule")

# Bootstrap parameters recorded in the document's ``stats`` block: the
# stored CI bounds are reproducible from the stored samples.
BOOTSTRAP_RESAMPLES = 2000
CONFIDENCE = 0.95

# Per-scene "tilecache" keys (schema v5): cross-frame cache telemetry.
_TILECACHE_INT_KEYS = ("lookups", "hits", "misses", "collisions", "stores")
_TILECACHE_FLOAT_KEYS = (
    "hit_rate", "cycles_saved", "signature_cycles",
    "joules_saved", "signature_j",
    "effective_gpu_cycles", "effective_total_j",
)
_TILECACHE_LIST_KEYS = ("per_frame_hits", "per_frame_lookups")

# Per-scene energy keys the validator requires (mirrors
# FrameEnergyReport.as_dict()).
_ENERGY_GPU_KEYS = (
    "geometry_j", "raster_j", "fragment_j", "memory_j", "static_j", "total_j",
)
_ENERGY_RBCD_KEYS = ("insertion_j", "overlap_j", "output_j", "static_j", "total_j")
_ENERGY_TOP_KEYS = ("total_j", "delay_s", "edp_js")

# Default gate thresholds (GatePolicy is a slots dataclass, so its
# defaults are not reachable as class attributes).
_DEFAULT_POLICY = GatePolicy()


def stage_summary(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Aggregate one run's spans by name: count, wall total, cycles."""
    wall_ms: dict[str, list[float]] = {}
    cycles: dict[str, float] = {}
    for span in tracer.spans:
        wall_ms.setdefault(span.name, []).append(span.wall_s * 1e3)
        cycles[span.name] = cycles.get(span.name, 0.0) + span.cycles
    return {
        name: {
            "count": len(samples),
            "wall_ms_total": sum(samples),
            "cycles": cycles[name],
        }
        for name, samples in wall_ms.items()
    }


def aggregate_stage_runs(
    run_summaries: Sequence[Mapping[str, Mapping[str, float]]]
) -> dict[str, dict[str, Any]]:
    """Merge per-run stage summaries into the schema-v2 stage records.

    Span counts and simulated cycles are deterministic; a mismatch
    across runs means nondeterminism leaked into the model and is an
    error, not a statistic.
    """
    if not run_summaries:
        raise ValueError("need at least one run")
    first = run_summaries[0]
    stages: dict[str, dict[str, Any]] = {}
    for name, record in first.items():
        samples = []
        for i, summary in enumerate(run_summaries):
            other = summary.get(name)
            if other is None:
                raise RuntimeError(
                    f"stage {name!r} missing from run {i}: span structure "
                    f"is nondeterministic"
                )
            for key in ("count", "cycles"):
                if other[key] != record[key]:
                    raise RuntimeError(
                        f"stage {name!r} {key} differs across runs "
                        f"({record[key]} vs run {i}: {other[key]}): "
                        f"the simulation is nondeterministic"
                    )
            samples.append(float(other["wall_ms_total"]))
        lo, hi = bootstrap_ci(
            samples, confidence=CONFIDENCE, n_resamples=BOOTSTRAP_RESAMPLES
        )
        stages[name] = {
            "count": int(record["count"]),
            "cycles": float(record["cycles"]),
            "wall_ms_median": float(median(samples)),
            "wall_ms_total": float(sum(samples)),
            "wall_ms_min": float(min(samples)),
            "wall_ms_max": float(max(samples)),
            "wall_ms_ci95": [lo, hi],
            "wall_ms_runs": samples,
        }
    extra = {
        name for summary in run_summaries for name in summary
    } - set(first)
    if extra:
        raise RuntimeError(
            f"stages {sorted(extra)} appear in some runs only: span "
            f"structure is nondeterministic"
        )
    return stages


def _make_tracer(profile: bool) -> Tracer:
    return ProfilingTracer() if profile else Tracer()


def _tilecache_block(
    enabled: bool,
    registry: CounterRegistry | None,
    per_frame_hits: list[int],
    per_frame_lookups: list[int],
    gpu_cycles: float,
    total_j: float,
) -> dict[str, Any]:
    """Assemble one scene's schema-v5 ``tilecache`` block.

    ``effective_gpu_cycles``/``effective_total_j`` are the reported
    totals minus the modelled replay savings plus the signature
    compare/store overhead — what the hardware would actually spend.
    With the cache off they equal the reported totals exactly.
    """
    counts = registry.as_dict() if registry is not None else {}
    hits = int(counts.get("gpu.tilecache.hits", 0))
    lookups = int(counts.get("gpu.tilecache.lookups", 0))
    cycles_saved = float(counts.get("gpu.tilecache.cycles_saved", 0.0))
    signature_cycles = float(counts.get("gpu.tilecache.signature_cycles", 0.0))
    joules_saved = float(counts.get("gpu.tilecache.joules_saved", 0.0))
    signature_j = float(counts.get("gpu.tilecache.signature_j", 0.0))
    return {
        "enabled": enabled,
        "lookups": lookups,
        "hits": hits,
        "misses": int(counts.get("gpu.tilecache.misses", 0)),
        "collisions": int(counts.get("gpu.tilecache.collisions", 0)),
        "stores": int(counts.get("gpu.tilecache.stores", 0)),
        "hit_rate": hits / lookups if lookups else 0.0,
        "cycles_saved": cycles_saved,
        "signature_cycles": signature_cycles,
        "joules_saved": joules_saved,
        "signature_j": signature_j,
        "effective_gpu_cycles": gpu_cycles - cycles_saved + signature_cycles,
        "effective_total_j": total_j - joules_saved + signature_j,
        "per_frame_hits": list(per_frame_hits),
        "per_frame_lookups": list(per_frame_lookups),
    }


def _tile_profile_block(
    enabled: bool, profiler: TileProfiler | None
) -> dict[str, Any]:
    """Assemble one scene's schema-v6 ``tile_profile`` block.

    Disabled runs record ``{"enabled": False}`` only — no grids — so
    the block stays tiny in the common case while remaining present
    (and therefore part of the cross-run determinism check) always.
    """
    if not enabled or profiler is None:
        return {"enabled": False}
    return {"enabled": True, **profiler.as_dict()}


def run_scene(
    alias: str,
    config: GPUConfig,
    frames: int,
    detail: int,
    runs: int = 1,
    trace_dir: Path | None = None,
    profile: bool = False,
    tile_profile: bool = False,
) -> dict[str, Any]:
    """Render one workload ``runs`` times through a traced system."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    workload = workload_by_alias(alias, detail=detail)
    tracer = _make_tracer(profile)
    recorder = ProvenanceRecorder()
    profiler = TileProfiler() if tile_profile else None
    run_summaries: list[dict] = []
    frame_wall_s_runs: list[float] = []
    first_totals: dict[str, Any] | None = None
    first_counters: dict[str, Any] | None = None
    first_cases: dict[str, int] | None = None
    first_tilecache: dict[str, Any] | None = None
    first_tile_profile: dict[str, Any] | None = None
    energy: FrameEnergyReport | None = None

    observers = [recorder] if profiler is None else [recorder, profiler]
    with RBCDSystem(
        config=config, tracer=tracer, observers=observers
    ) as system:
        for run in range(runs):
            tracer.reset()
            recorder.reset()
            if profiler is not None:
                profiler.reset()
            # Each run starts cold: a warm cache would replay run 0's
            # tiles, making runs > 0 legitimately different — the
            # determinism check below would then misfire.
            system.reset_tile_cache()
            fragments = 0
            pair_records = 0
            gpu_cycles = 0.0
            pairs: set[tuple[int, int]] = set()
            counters: CounterRegistry | int = 0
            tc_counters: CounterRegistry | int = 0
            per_frame_hits: list[int] = []
            per_frame_lookups: list[int] = []
            run_energy = FrameEnergyReport()
            for t in workload.times(frames):
                frame = workload.scene.frame_at(float(t), config)
                result = system.detect_frame(frame)
                fragments += result.stats.fragments_produced
                pair_records += result.report.pair_records_written
                gpu_cycles += result.stats.gpu_cycles
                pairs |= result.pairs
                counters = counters + result.stats.registry()
                if result.tilecache is not None:
                    tc_counters = tc_counters + result.tilecache
                    frame_tc = result.tilecache.as_dict()
                    per_frame_hits.append(
                        int(frame_tc.get("gpu.tilecache.hits", 0))
                    )
                    per_frame_lookups.append(
                        int(frame_tc.get("gpu.tilecache.lookups", 0))
                    )
                assert result.energy is not None
                run_energy = run_energy + result.energy
            assert isinstance(counters, CounterRegistry)
            counters = counters + run_energy.registry()
            if isinstance(tc_counters, CounterRegistry):
                counters = counters + tc_counters

            run_summaries.append(stage_summary(tracer))
            frame_wall_s_runs.append(
                sum(s.wall_s for s in tracer.by_name("frame") if s.closed)
            )
            totals = {
                "fragments_produced": fragments,
                "pair_records_written": pair_records,
                "gpu_cycles": gpu_cycles,
                "colliding_pairs": len(pairs),
            }
            cases = dict(recorder.case_histogram())
            cases["self_filtered"] = recorder.self_pairs_filtered
            cases["evidence_records"] = recorder.pairs_recorded
            tilecache = _tilecache_block(
                config.tile_cache_enabled,
                tc_counters if isinstance(tc_counters, CounterRegistry)
                else None,
                per_frame_hits, per_frame_lookups,
                gpu_cycles, run_energy.total_j,
            )
            profile_block = _tile_profile_block(tile_profile, profiler)
            if first_totals is None:
                first_totals = totals
                first_counters = counters.as_dict()
                first_cases = cases
                first_tilecache = tilecache
                first_tile_profile = profile_block
                energy = run_energy
            else:
                # Everything but wall time is a pure function of the
                # scene; catching drift here is a free differential test
                # every multi-run bench performs.  The tilecache and
                # tile_profile blocks participate: each run starts from
                # a cold cache and a reset profiler, so hit patterns
                # and grids must repeat exactly too.
                if (
                    totals != first_totals
                    or counters.as_dict() != first_counters
                    or cases != first_cases
                    or tilecache != first_tilecache
                    or profile_block != first_tile_profile
                ):
                    raise RuntimeError(
                        f"scene {alias!r} run {run} produced different "
                        f"counters than run 0: the simulation is "
                        f"nondeterministic"
                    )

    assert first_totals is not None and first_counters is not None
    assert first_cases is not None and first_tilecache is not None
    assert first_tile_profile is not None and energy is not None
    if trace_dir is not None:
        # Traces from the last run (the tracer holds one run at a time).
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_ndjson(tracer, trace_dir / f"trace_{alias}.ndjson")
        write_chrome_trace(
            tracer,
            trace_dir / f"trace_{alias}.json",
            process_name=f"repro bench:{alias}",
        )
    wall_s = float(median(frame_wall_s_runs))
    return {
        "frames": frames,
        "runs": runs,
        "stages": aggregate_stage_runs(run_summaries),
        "totals": first_totals,
        "throughput": {
            "wall_s": wall_s,
            "fragments_per_s":
                first_totals["fragments_produced"] / wall_s if wall_s else 0.0,
            "pairs_per_s":
                first_totals["pair_records_written"] / wall_s if wall_s else 0.0,
        },
        "counters": first_counters,
        "energy": energy.as_dict(),
        "cases": first_cases,
        "tilecache": first_tilecache,
        "tile_profile": first_tile_profile,
    }


def run_bench(
    scenes: Sequence[str],
    width: int,
    height: int,
    frames: int,
    detail: int,
    quick: bool = False,
    runs: int = 1,
    trace_dir: Path | None = None,
    profile: bool = False,
    kernel_backend: str | None = None,
    broad_phase: str = "lbvh",
    tile_cache: bool | None = None,
    tile_profile: bool = False,
    progress=None,
) -> dict[str, Any]:
    """Run the bench over ``scenes`` and assemble the full document.

    ``kernel_backend`` selects the GPU kernel implementation (default:
    the config's own default, i.e. ``REPRO_KERNEL_BACKEND`` or
    ``vectorized``); the *resolved* name is recorded in the config
    block.  ``broad_phase`` names the software broad phase the
    document's CPU-side numbers assume — the bench itself is GPU-side,
    but the key exists for comparability: two documents measured under
    different configurations must never gate against each other.
    ``tile_cache`` forces the cross-frame tile cache on/off (``None``
    keeps the config default, i.e. ``REPRO_TILE_CACHE``); the resolved
    setting is recorded in the config block for the same reason.
    ``tile_profile`` attaches a per-scene
    :class:`~repro.observability.tileprofile.TileProfiler` and stores
    its grids in the schema-v6 ``tile_profile`` blocks — strictly
    observational, but recorded in the config block so profiled and
    unprofiled documents never gate against each other.
    """
    from repro.physics.world import BROAD_ALGOS

    if broad_phase not in BROAD_ALGOS:
        raise ValueError(f"broad_phase must be one of {BROAD_ALGOS}")
    config = GPUConfig().with_screen(width, height)
    if kernel_backend is not None:
        config = config.with_kernel_backend(kernel_backend)
    if tile_cache is not None:
        config = config.with_tile_cache(tile_cache)
    get_kernel_backend(config.kernel_backend)  # fail fast on bad names
    doc: dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": {
            "width": width,
            "height": height,
            "frames": frames,
            "detail": detail,
            "quick": quick,
            "runs": runs,
            "profile": profile,
            "kernel_backend": config.kernel_backend,
            "broad_phase": broad_phase,
            "tile_cache": config.tile_cache_enabled,
            "tile_profile": tile_profile,
        },
        "stats": {
            "bootstrap_resamples": BOOTSTRAP_RESAMPLES,
            "confidence": CONFIDENCE,
        },
        "scenes": {},
    }
    for alias in scenes:
        if progress is not None:
            progress(alias)
        doc["scenes"][alias] = run_scene(
            alias, config, frames, detail,
            runs=runs, trace_dir=trace_dir, profile=profile,
            tile_profile=tile_profile,
        )
    return doc


def _fail(errors: list[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _check_number(errors, path, value, minimum=0.0) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(errors, path, f"expected a number, got {type(value).__name__}")
    elif value < minimum:
        _fail(errors, path, f"expected >= {minimum}, got {value}")


def _check_int(errors, path, value, minimum=0) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(errors, path, f"expected an int, got {type(value).__name__}")
    elif value < minimum:
        _fail(errors, path, f"expected >= {minimum}, got {value}")


def _check_stage_record(errors, spath, record, runs) -> None:
    _check_int(errors, f"{spath}.count", record.get("count"), minimum=1)
    for key in ("wall_ms_median", "wall_ms_total", "wall_ms_min",
                "wall_ms_max", "cycles"):
        _check_number(errors, f"{spath}.{key}", record.get(key))
    ci = record.get("wall_ms_ci95")
    if (
        not isinstance(ci, list) or len(ci) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in ci)
    ):
        _fail(errors, f"{spath}.wall_ms_ci95", "expected [lo, hi] numbers")
    elif ci[0] > ci[1]:
        _fail(errors, f"{spath}.wall_ms_ci95", f"lo > hi ({ci[0]} > {ci[1]})")
    samples = record.get("wall_ms_runs")
    if not isinstance(samples, list) or not samples:
        _fail(errors, f"{spath}.wall_ms_runs", "expected a non-empty list")
    else:
        for i, value in enumerate(samples):
            _check_number(errors, f"{spath}.wall_ms_runs[{i}]", value)
        if isinstance(runs, int) and 0 < runs != len(samples):
            _fail(
                errors, f"{spath}.wall_ms_runs",
                f"expected {runs} samples (config.runs), got {len(samples)}",
            )


def _check_energy(errors, base, energy) -> None:
    if not isinstance(energy, Mapping):
        _fail(errors, f"{base}.energy", "missing or not an object")
        return
    for block, keys in (("gpu", _ENERGY_GPU_KEYS), ("rbcd", _ENERGY_RBCD_KEYS)):
        entry = energy.get(block)
        if not isinstance(entry, Mapping):
            _fail(errors, f"{base}.energy.{block}", "missing or not an object")
            continue
        for key in keys:
            _check_number(errors, f"{base}.energy.{block}.{key}", entry.get(key))
    for key in _ENERGY_TOP_KEYS:
        _check_number(errors, f"{base}.energy.{key}", energy.get(key))


def _check_tile_profile(errors, base, profile) -> None:
    """Schema-v6 per-scene ``tile_profile`` block: ``{"enabled": False}``
    alone when disabled; dimensions + full-length grids when enabled."""
    ppath = f"{base}.tile_profile"
    if not isinstance(profile, Mapping):
        _fail(errors, ppath, "missing or not an object (schema v6)")
        return
    enabled = profile.get("enabled")
    if not isinstance(enabled, bool):
        _fail(errors, f"{ppath}.enabled", "expected a bool")
        return
    if not enabled:
        return
    for key in ("tiles_x", "tiles_y", "frames"):
        _check_int(errors, f"{ppath}.{key}", profile.get(key), minimum=1)
    tiles_x = profile.get("tiles_x")
    tiles_y = profile.get("tiles_y")
    expected = (
        tiles_x * tiles_y
        if isinstance(tiles_x, int) and isinstance(tiles_y, int)
        else None
    )
    for name in GRID_NAMES:
        grid = profile.get(name)
        if not isinstance(grid, list):
            _fail(errors, f"{ppath}.{name}", "expected a list")
            continue
        if expected is not None and len(grid) != expected:
            _fail(errors, f"{ppath}.{name}",
                  f"expected {expected} cells (tiles_x*tiles_y), "
                  f"got {len(grid)}")
        for i, value in enumerate(grid):
            _check_number(errors, f"{ppath}.{name}[{i}]", value)


def validate_bench_document(doc: Any) -> None:
    """Raise ``ValueError`` (listing every problem) if ``doc`` is not a
    well-formed rbcd-bench document.

    Accepts any version in :data:`SUPPORTED_VERSIONS`: v5 is additive
    over v4 (config ``tile_cache`` + per-scene ``tilecache``) and v6
    over v5 (config ``tile_profile`` + per-scene ``tile_profile``), so
    the new keys are required at their version and skipped below it.
    Unknown *extra* keys are tolerated at any version — additive schema
    growth must not invalidate stored baselines.
    """
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        raise ValueError("bench document must be a JSON object")
    if doc.get("schema") != SCHEMA_NAME:
        _fail(errors, "schema", f"expected {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    version = doc.get("version")
    if version not in SUPPORTED_VERSIONS:
        _fail(errors, "version",
              f"expected one of {SUPPORTED_VERSIONS}, got {version!r}")
        version = SCHEMA_VERSION  # check the rest at the current schema

    config = doc.get("config")
    runs = None
    if not isinstance(config, Mapping):
        _fail(errors, "config", "missing or not an object")
    else:
        for key in ("width", "height", "frames", "detail", "runs"):
            _check_int(errors, f"config.{key}", config.get(key), minimum=1)
        for key in ("quick", "profile"):
            if not isinstance(config.get(key), bool):
                _fail(errors, f"config.{key}", "expected a bool")
        for key in ("kernel_backend", "broad_phase"):
            value = config.get(key)
            if not isinstance(value, str) or not value:
                _fail(errors, f"config.{key}", "expected a non-empty string")
        if version >= 5 and not isinstance(config.get("tile_cache"), bool):
            _fail(errors, "config.tile_cache", "expected a bool (schema v5)")
        if version >= 6 and not isinstance(config.get("tile_profile"), bool):
            _fail(errors, "config.tile_profile", "expected a bool (schema v6)")
        runs = config.get("runs")

    stats = doc.get("stats")
    if not isinstance(stats, Mapping):
        _fail(errors, "stats", "missing or not an object")
    else:
        _check_int(errors, "stats.bootstrap_resamples",
                   stats.get("bootstrap_resamples"), minimum=1)
        confidence = stats.get("confidence")
        _check_number(errors, "stats.confidence", confidence)
        if isinstance(confidence, (int, float)) and not isinstance(confidence, bool):
            if not 0.0 < confidence < 1.0:
                _fail(errors, "stats.confidence",
                      f"expected a value in (0, 1), got {confidence}")

    scenes = doc.get("scenes")
    if not isinstance(scenes, Mapping) or not scenes:
        _fail(errors, "scenes", "missing, not an object, or empty")
        scenes = {}
    for alias, entry in scenes.items():
        base = f"scenes.{alias}"
        if not isinstance(entry, Mapping):
            _fail(errors, base, "not an object")
            continue
        _check_int(errors, f"{base}.frames", entry.get("frames"), minimum=1)
        _check_int(errors, f"{base}.runs", entry.get("runs"), minimum=1)

        stages = entry.get("stages")
        if not isinstance(stages, Mapping) or not stages:
            _fail(errors, f"{base}.stages", "missing, not an object, or empty")
            stages = {}
        for required in REQUIRED_STAGES:
            if required not in stages:
                _fail(errors, f"{base}.stages", f"missing stage {required!r}")
        for stage, record in stages.items():
            spath = f"{base}.stages.{stage}"
            if not isinstance(record, Mapping):
                _fail(errors, spath, "not an object")
                continue
            _check_stage_record(errors, spath, record, runs)

        totals = entry.get("totals")
        if not isinstance(totals, Mapping):
            _fail(errors, f"{base}.totals", "missing or not an object")
        else:
            for key in ("fragments_produced", "pair_records_written",
                        "colliding_pairs"):
                _check_int(errors, f"{base}.totals.{key}", totals.get(key))
            _check_number(errors, f"{base}.totals.gpu_cycles",
                          totals.get("gpu_cycles"))

        throughput = entry.get("throughput")
        if not isinstance(throughput, Mapping):
            _fail(errors, f"{base}.throughput", "missing or not an object")
        else:
            for key in ("wall_s", "fragments_per_s", "pairs_per_s"):
                _check_number(errors, f"{base}.throughput.{key}",
                              throughput.get(key))

        counters = entry.get("counters")
        if not isinstance(counters, Mapping) or not counters:
            _fail(errors, f"{base}.counters", "missing, not an object, or empty")
        else:
            for name, value in counters.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    _fail(errors, f"{base}.counters.{name}",
                          f"expected a number, got {type(value).__name__}")
            if "energy.total_j" not in counters:
                _fail(errors, f"{base}.counters",
                      "missing the energy.* namespace (energy.total_j)")

        _check_energy(errors, base, entry.get("energy"))

        cases = entry.get("cases")
        if not isinstance(cases, Mapping):
            _fail(errors, f"{base}.cases", "missing or not an object")
        else:
            for key in _CASE_KEYS:
                _check_int(errors, f"{base}.cases.{key}", cases.get(key))

        if version >= 5:
            tilecache = entry.get("tilecache")
            tpath = f"{base}.tilecache"
            if not isinstance(tilecache, Mapping):
                _fail(errors, tpath, "missing or not an object (schema v5)")
            else:
                if not isinstance(tilecache.get("enabled"), bool):
                    _fail(errors, f"{tpath}.enabled", "expected a bool")
                for key in _TILECACHE_INT_KEYS:
                    _check_int(errors, f"{tpath}.{key}", tilecache.get(key))
                for key in _TILECACHE_FLOAT_KEYS:
                    _check_number(errors, f"{tpath}.{key}", tilecache.get(key))
                for key in _TILECACHE_LIST_KEYS:
                    values = tilecache.get(key)
                    if not isinstance(values, list):
                        _fail(errors, f"{tpath}.{key}", "expected a list")
                        continue
                    for i, value in enumerate(values):
                        _check_int(errors, f"{tpath}.{key}[{i}]", value)

        if version >= 6:
            _check_tile_profile(errors, base, entry.get("tile_profile"))

    if errors:
        raise ValueError(
            "invalid rbcd-bench document:\n  " + "\n  ".join(errors)
        )


def gate_against_baseline(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    policy: GatePolicy | None = None,
) -> GateReport:
    """Compare a fresh document against a baseline document.

    Both documents are schema-validated first, and profiled documents
    are refused on either side — cProfile overhead poisons every wall
    number.
    """
    report = GateReport()
    for label, doc in (("baseline", baseline), ("current", current)):
        try:
            validate_bench_document(doc)
        except ValueError as exc:
            report.errors.append(f"{label} document invalid: {exc}")
            continue
        if doc["config"].get("profile"):
            report.errors.append(
                f"{label} document was produced under --profile; "
                f"profiled wall times cannot gate"
            )
    if report.errors:
        return report
    return compare_documents(baseline, current, policy)


def history_line(doc: Mapping[str, Any]) -> str:
    """One ndjson line summarizing a bench document for the history log.

    One JSON object per *scene* field inside a single line per run:
    schema version, workload config fingerprint, and per-scene
    gpu_cycles / total_j / effective totals — enough to plot a metric's
    trajectory or pick two runs to feed the attribution engine, small
    enough to append forever.  No timestamps: the append order is the
    history.
    """
    config = doc.get("config", {})
    record: dict[str, Any] = {
        "schema": doc.get("schema"),
        "version": doc.get("version"),
        "config": {
            key: config.get(key)
            for key in ("width", "height", "frames", "detail", "runs",
                        "kernel_backend", "broad_phase", "tile_cache",
                        "tile_profile")
        },
        "scenes": {},
    }
    for alias, entry in doc.get("scenes", {}).items():
        totals = entry.get("totals", {})
        energy = entry.get("energy", {})
        tilecache = entry.get("tilecache", {})
        record["scenes"][alias] = {
            "gpu_cycles": totals.get("gpu_cycles"),
            "total_j": energy.get("total_j"),
            "edp_js": energy.get("edp_js"),
            "effective_gpu_cycles": tilecache.get("effective_gpu_cycles"),
            "effective_total_j": tilecache.get("effective_total_j"),
        }
    return json.dumps(record, sort_keys=True)


def append_history(doc: Mapping[str, Any], path: Path) -> Path:
    """Append :func:`history_line` to ``path`` (created with parents)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(history_line(doc) + "\n")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench",
        description="Traced benchmark runs over the paper's four scenes, "
                    "with energy accounting and baseline regression gating.",
    )
    parser.add_argument(
        "--scenes", nargs="+", choices=BENCHMARKS, default=list(BENCHMARKS),
        help="benchmark aliases to run (default: all four)",
    )
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=192)
    parser.add_argument(
        "--frames", type=int, default=4,
        help="animation frames per scene (default: 4)",
    )
    parser.add_argument(
        "--detail", type=int, default=2,
        help="mesh tessellation detail (default: 2)",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="repetitions per scene for wall-time statistics (default: 1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: 160x96, 2 frames, detail 1",
    )
    parser.add_argument(
        "--kernel-backend", choices=backend_names(), default=None,
        help="GPU kernel implementation (default: the config default, "
             "REPRO_KERNEL_BACKEND or 'vectorized'); recorded in the "
             "document's config block",
    )
    parser.add_argument(
        "--broad-phase", default="lbvh",
        help="software broad-phase configuration to record in the "
             "document's config block (default: lbvh)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--tile-cache", dest="tile_cache", action="store_true", default=None,
        help="enable the cross-frame tile cache (repro.gpu.tilecache); "
             "replay is exact, so only the v5 tilecache block moves "
             "(default: the config default, REPRO_TILE_CACHE or off)",
    )
    cache_group.add_argument(
        "--no-tile-cache", dest="tile_cache", action="store_false",
        help="force the cross-frame tile cache off",
    )
    parser.add_argument(
        "--tile-profile", action="store_true",
        help="record per-tile cycle/energy/activity grids into the "
             "schema-v6 tile_profile blocks (strictly observational; "
             "enables the attribution engine's spatial layer)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach cProfile to stage spans; hotspots land in the "
             "exported traces (document is marked and cannot gate)",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_rbcd.json"),
        help="output JSON path (default: BENCH_rbcd.json)",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None,
        help="also write per-scene ndjson + Chrome traces here",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="compare the fresh document against this stored baseline",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit non-zero when the baseline comparison finds a "
             "regression (requires --baseline)",
    )
    parser.add_argument(
        "--wall-tol", type=float, default=_DEFAULT_POLICY.wall_tol,
        help="relative wall-time slack before a significant slowdown "
             f"counts as a regression (default: {_DEFAULT_POLICY.wall_tol})",
    )
    parser.add_argument(
        "--metric-tol", type=float, default=_DEFAULT_POLICY.metric_tol,
        help="relative slack for deterministic metrics "
             f"(default: {_DEFAULT_POLICY.metric_tol})",
    )
    parser.add_argument(
        "--alpha", type=float, default=_DEFAULT_POLICY.alpha,
        help=f"significance level for wall-time tests (default: {_DEFAULT_POLICY.alpha})",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="on gate failure, run the attribution engine against the "
             "baseline and print the top attributed causes "
             "(requires --baseline)",
    )
    parser.add_argument(
        "--explain-json", type=Path, default=None, metavar="FILE",
        help="also write the full attribution report as JSON on gate "
             "failure (CI artifact; implies --explain)",
    )
    parser.add_argument(
        "--append-history", nargs="?", type=Path, const=HISTORY_PATH,
        default=None, metavar="FILE",
        help="append a one-line ndjson summary of this run to FILE "
             f"(default: {HISTORY_PATH})",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="FILE",
        help="validate an existing bench document and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.check is not None:
        try:
            doc = json.loads(args.check.read_text())
            validate_bench_document(doc)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"FAIL {args.check}: {exc}", file=sys.stderr)
            return 1
        print(f"OK {args.check}: valid {SCHEMA_NAME} v{doc['version']} "
              f"({len(doc['scenes'])} scenes)")
        return 0

    if args.gate and args.baseline is None:
        parser.error("--gate requires --baseline")
    if args.explain_json is not None:
        args.explain = True
    if args.explain and args.baseline is None:
        parser.error("--explain requires --baseline")

    if args.quick:
        args.width, args.height = 160, 96
        args.frames, args.detail = 2, 1

    doc = run_bench(
        args.scenes, args.width, args.height, args.frames, args.detail,
        quick=args.quick, runs=args.runs, trace_dir=args.trace_dir,
        profile=args.profile, kernel_backend=args.kernel_backend,
        broad_phase=args.broad_phase, tile_cache=args.tile_cache,
        tile_profile=args.tile_profile,
        progress=lambda alias: print(f"bench: {alias} ...", flush=True),
    )
    validate_bench_document(doc)
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    if args.append_history is not None:
        append_history(doc, args.append_history)
        print(f"appended history line to {args.append_history}")
    for alias, entry in doc["scenes"].items():
        totals = entry["totals"]
        throughput = entry["throughput"]
        energy = entry["energy"]
        print(
            f"  {alias}: {totals['fragments_produced']} fragments, "
            f"{totals['pair_records_written']} pair records, "
            f"{throughput['fragments_per_s']:.0f} frag/s, "
            f"{energy['total_j'] * 1e3:.3f} mJ, "
            f"EDP {energy['edp_js'] * 1e6:.3f} uJs"
        )
        tilecache = entry["tilecache"]
        if tilecache["enabled"]:
            print(
                f"    tilecache: {tilecache['hits']}/{tilecache['lookups']} "
                f"hits ({tilecache['hit_rate']:.0%}), "
                f"{tilecache['cycles_saved']:.0f} cycles and "
                f"{tilecache['joules_saved'] * 1e9:.3f} nJ replayed away"
            )

    if args.baseline is not None:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {args.baseline}: {exc}", file=sys.stderr)
            return 1
        policy = GatePolicy(
            wall_tol=args.wall_tol, metric_tol=args.metric_tol,
            alpha=args.alpha,
        )
        report = gate_against_baseline(doc, baseline, policy)
        print(f"baseline: {args.baseline}")
        print(report.render())
        if not report.ok:
            print(report.failure_line(), file=sys.stderr)
            if args.explain:
                _explain_failure(
                    report, baseline, doc, args.alpha, args.explain_json
                )
            if args.gate:
                print("gate: FAILED", file=sys.stderr)
                return 1
            print("gate: regressions found (informational; pass --gate "
                  "to enforce)")
        else:
            print("gate: ok")
    return 0


def _explain_failure(
    report: GateReport,
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    alpha: float,
    json_path: Path | None,
) -> None:
    """Attribute a failed gate: print top causes per regressed metric
    (falling back to the global ranking on structural failures) and
    optionally write the full attribution report for CI to upload."""
    attribution = attribute_documents(baseline, current, alpha=alpha)
    printed = 0
    for regression in report.regressions:
        causes = attribution.explain(regression.scene, regression.metric)
        if not causes:
            continue
        print(f"explain [{regression.scene}] {regression.metric}:",
              file=sys.stderr)
        for cause in causes:
            note = f" — {cause['note']}" if cause["note"] else ""
            print(
                f"  {cause['path']}: {cause['baseline']:.6g} -> "
                f"{cause['current']:.6g} ({cause['delta']:+.6g}, "
                f"{cause['share']:+.1%}){note}",
                file=sys.stderr,
            )
            printed += 1
    if printed == 0:
        # Structural failure or no tree covers the gated metric: the
        # global ranking is still the best available pointer.
        for line in attribution.render_text(top_k=10).splitlines():
            print(f"explain: {line}", file=sys.stderr)
    if json_path is not None:
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(attribution.to_json() + "\n")
        print(f"explain: wrote attribution report to {json_path}",
              file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
