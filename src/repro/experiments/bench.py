"""Benchmark harness: the model's outputs per scene, gated exactly.

``python -m repro.experiments.bench`` renders each benchmark workload
through a traced :class:`~repro.core.RBCDSystem` and writes
``BENCH_rbcd.json``.  Every number in the document is a model output —
a pure function of the code and the workload — so the document is a
deterministic instrument, not a timing report (host speed is measured
by the repository benchmark, ``perfbench/``):

* per-stage span counts and simulated cycles, frame totals and the
  merged counter registry (including the ``energy.*`` namespace);
* a modelled **energy** section — the Figure-10/11-style per-component
  joules from :class:`~repro.energy.report.EnergyAccount` plus the
  energy-delay product;
* the Figure-5 interference-case histogram from an always-attached
  :class:`~repro.observability.provenance.ProvenanceRecorder`;
* **agreement with the exact oracle**
  (:func:`repro.observability.forensics.oracle_pairs`, the LBVH broad
  phase plus exact triangle/triangle tests): per-frame true positives,
  false positives and false negatives, summed over frames — the
  Figure-2 accuracy quantity;
* with ``--tile-profile``, per-tile cycle/energy/activity grids.

``--baseline FILE`` compares the fresh document against a stored
baseline (``benchmarks/baselines/*.json``) with
:func:`repro.observability.regress.compare_documents`: every numeric
leaf of every scene must match, in either direction, and each one that
moved is printed as a ``CHANGED scene/metric: a -> b`` line.  ``--gate``
turns any difference into a non-zero exit; a baseline that cannot be
read or is refused as invalid exits non-zero with or without it.
Every gate failure emits one machine-greppable ``GATE-FAIL`` line.  A
run with ``--baseline`` writes its fresh document only when
``--output`` is given, so a gate run never replaces a committed one.

The document layout (checked by :func:`validate_bench_document`):

.. code-block:: text

    {
      "schema": "rbcd-bench",          # fixed discriminator
      "version": 10,
      "config": {width, height, frames, detail, quick, tile_profile},
      "scenes": {
        "<alias>": {
          "frames": N,
          "stages": {"<stage>": {count, cycles}},   # one per span name
          "totals": {fragments_produced, pair_records_written,
                     gpu_cycles, colliding_pairs},
          "counters": {"<name>": value},  # merged CounterRegistry
          "energy": {gpu: {...}, rbcd: {...},   # joules per component
                     total_j, delay_s, edp_js},
          "cases": {disjoint, crossing, nested,     # Figure-5 histogram
                    self_filtered, evidence_records},
          "oracle": {tp, fp, fn},                   # vs the exact oracle
          "tile_profile": {enabled,
                           tiles_x, tiles_y, frames,    # when enabled
                           cycles, energy_j, activity,  # flat per-tile
                           lookups}                     # grids
        }
      }
    }

Schema v10 drops three stage entries of v9: the per-tile RBCD span
and its ZEB-insertion and Z-Overlap children.  Those spans timed no
work, and their cycles were already in the document as the
``gpu.rbcd.rbcd_fragments_in`` and ``gpu.rbcd.rbcd_cycles`` counters.
Every other value is unchanged.  The validator accepts v10 documents
only.

Besides the layout, the validator checks the model's own identities in
every scene (:data:`IDENTITIES`): frame cycles against the counters,
the energy sums, the ``rbcd`` stage against its counter and, when
profiled, the tile grids against their counter and energy totals.  A
document that breaks one is refused by ``--check``, before ``main()``
writes it, and on either side of the gate.

``--append-history`` appends a one-line ndjson summary per run to
``benchmarks/history/HISTORY.ndjson`` (or a given file), building a
longitudinal record of the headline metrics.

``--quick`` is the CI preset (160x96, 4 frames, detail 1) and cannot be
combined with ``--width``/``--height``/``--frames``/``--detail``;
``--check FILE`` validates an existing document (layout and
identities) and exits, without any third-party schema library.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core import RBCDSystem
from repro.energy.report import FrameEnergyReport
from repro.gpu.config import GPUConfig
from repro.observability.counters import CounterRegistry
from repro.observability.export import write_chrome_trace, write_ndjson
from repro.observability.forensics import oracle_pairs
from repro.observability.provenance import ProvenanceRecorder
from repro.observability.regress import (
    GateReport,
    compare_documents,
    within_tol,
)
from repro.observability.tileprofile import GRID_NAMES, TileProfiler
from repro.observability.tracer import Tracer
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "REQUIRED_STAGES",
    "REQUIRED_COUNTERS",
    "IDENTITIES",
    "HISTORY_PATH",
    "QUICK_PRESET",
    "run_bench",
    "run_scene",
    "stage_summary",
    "gate_against_baseline",
    "validate_bench_document",
    "history_line",
    "append_history",
    "main",
]

SCHEMA_NAME = "rbcd-bench"
SCHEMA_VERSION = 10
SUPPORTED_VERSIONS = (10,)

# Default history file for --append-history (repo-relative).
HISTORY_PATH = Path("benchmarks/history/HISTORY.ndjson")

# Workload flags and their defaults, without and with --quick.
_DEFAULTS = {"width": 320, "height": 192, "frames": 4, "detail": 2}
QUICK_PRESET = {"width": 160, "height": 96, "frames": 4, "detail": 1}

# Per-scene "cases" keys: the Figure-5 interference-case histogram
# from the provenance recorder, deterministic per scene.
_CASE_KEYS = (
    "disjoint", "crossing", "nested", "self_filtered", "evidence_records",
)

# Per-scene "oracle" keys: per-frame pair agreement with the exact
# oracle, summed over frames.
_ORACLE_KEYS = ("tp", "fp", "fn")

# Stage spans every traced frame is guaranteed to emit; their absence
# in a bench document means the run (or the tracer wiring) is broken.
REQUIRED_STAGES = ("frame", "geometry", "raster", "rbcd", "schedule")

# Per-scene energy keys the validator requires (mirrors
# FrameEnergyReport.as_dict()).
_ENERGY_GPU_KEYS = (
    "geometry_j", "raster_j", "fragment_j", "memory_j", "static_j", "total_j",
)
_ENERGY_RBCD_KEYS = ("insertion_j", "overlap_j", "output_j", "static_j", "total_j")
_ENERGY_TOP_KEYS = ("total_j", "delay_s", "edp_js")

# Counters the model's identities read; every document carries them.
REQUIRED_COUNTERS = (
    "gpu.gpu_cycles",
    "gpu.geometry.geometry_cycles",
    "gpu.raster.raster_pipeline_cycles",
    "gpu.rbcd.rbcd_fragments_in",
    "gpu.rbcd.rbcd_cycles",
    "energy.total_j",
)

# The model's identities over one scene entry, as (name, left, right):
# the operands on each side, as key paths into the entry, add up to the
# same total within float-summation noise (regress.REL_TOL) in every
# document the model writes.  A list operand (a tile grid) counts as
# its sum.  A tile's cycles are its ZEB insertions (one per fragment)
# plus its Z-Overlap cycles.
IDENTITIES = (
    ("totals.gpu_cycles == counters[gpu.gpu_cycles]",
     [("totals", "gpu_cycles")], [("counters", "gpu.gpu_cycles")]),
    ("totals.gpu_cycles == counters[gpu.geometry.geometry_cycles]"
     " + counters[gpu.raster.raster_pipeline_cycles]",
     [("totals", "gpu_cycles")],
     [("counters", "gpu.geometry.geometry_cycles"),
      ("counters", "gpu.raster.raster_pipeline_cycles")]),
    ("energy.total_j == counters[energy.total_j]",
     [("energy", "total_j")], [("counters", "energy.total_j")]),
    ("energy.total_j == energy.gpu.total_j + energy.rbcd.total_j",
     [("energy", "total_j")],
     [("energy", "gpu", "total_j"), ("energy", "rbcd", "total_j")]),
    ("energy.gpu.total_j == sum(energy.gpu components)",
     [("energy", "gpu", "total_j")],
     [("energy", "gpu", key) for key in _ENERGY_GPU_KEYS[:-1]]),
    ("energy.rbcd.total_j == sum(energy.rbcd components)",
     [("energy", "rbcd", "total_j")],
     [("energy", "rbcd", key) for key in _ENERGY_RBCD_KEYS[:-1]]),
    ("stages[rbcd] == counters[gpu.rbcd.rbcd_cycles]",
     [("stages", "rbcd", "cycles")], [("counters", "gpu.rbcd.rbcd_cycles")]),
    ("sum(tile_profile.cycles) == counters[gpu.rbcd.rbcd_fragments_in]"
     " + counters[gpu.rbcd.rbcd_cycles]",
     [("tile_profile", "cycles")],
     [("counters", "gpu.rbcd.rbcd_fragments_in"),
      ("counters", "gpu.rbcd.rbcd_cycles")]),
    ("energy.rbcd dynamic joules == sum(tile_profile.energy_j)",
     [("energy", "rbcd", key)
      for key in ("insertion_j", "overlap_j", "output_j")],
     [("tile_profile", "energy_j")]),
)


def stage_summary(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Aggregate a run's spans by name: span count and summed cycles."""
    stages: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        record = stages.setdefault(span.name, {"count": 0, "cycles": 0.0})
        record["count"] += 1
        record["cycles"] += span.cycles
    return stages


def run_scene(
    alias: str,
    config: GPUConfig,
    frames: int,
    detail: int,
    trace_dir: Path | None = None,
    tile_profile: bool = False,
) -> dict[str, Any]:
    """Render one workload through a traced system; one scene entry."""
    workload = workload_by_alias(alias, detail=detail)
    times = workload.times(frames)
    exact = oracle_pairs(workload, times)
    tracer = Tracer()
    recorder = ProvenanceRecorder()
    profiler = TileProfiler() if tile_profile else None
    fragments = 0
    pair_records = 0
    gpu_cycles = 0.0
    pairs: set[tuple[int, int]] = set()
    oracle = dict.fromkeys(_ORACLE_KEYS, 0)
    counters: CounterRegistry | int = 0
    energy = FrameEnergyReport()

    observers = [recorder] if profiler is None else [recorder, profiler]
    with RBCDSystem(
        config=config, tracer=tracer, observers=observers
    ) as system:
        for t, expected in zip(times, exact):
            frame = workload.scene.frame_at(float(t), config)
            result = system.detect_frame(frame)
            fragments += result.stats.fragments_produced
            pair_records += result.report.pair_records_written
            gpu_cycles += result.stats.gpu_cycles
            found = result.pairs
            pairs |= found
            oracle["tp"] += len(found & expected)
            oracle["fp"] += len(found - expected)
            oracle["fn"] += len(expected - found)
            counters = counters + result.stats.registry()
            assert result.energy is not None
            energy = energy + result.energy
    assert isinstance(counters, CounterRegistry)
    counters = counters + energy.registry()

    cases = dict(recorder.case_histogram())
    cases["self_filtered"] = recorder.self_pairs_filtered
    cases["evidence_records"] = recorder.pairs_recorded
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_ndjson(tracer, trace_dir / f"trace_{alias}.ndjson")
        write_chrome_trace(
            tracer,
            trace_dir / f"trace_{alias}.json",
            process_name=f"repro bench:{alias}",
        )
    return {
        "frames": frames,
        "stages": stage_summary(tracer),
        "totals": {
            "fragments_produced": fragments,
            "pair_records_written": pair_records,
            "gpu_cycles": gpu_cycles,
            "colliding_pairs": len(pairs),
        },
        "counters": counters.as_dict(),
        "energy": energy.as_dict(),
        "cases": cases,
        "oracle": oracle,
        "tile_profile": (
            {"enabled": True, **profiler.as_dict()}
            if profiler is not None else {"enabled": False}
        ),
    }


def run_bench(
    scenes: Sequence[str],
    width: int,
    height: int,
    frames: int,
    detail: int,
    quick: bool = False,
    trace_dir: Path | None = None,
    tile_profile: bool = False,
    progress=None,
) -> dict[str, Any]:
    """Run the bench over ``scenes`` and assemble the full document.

    ``tile_profile`` attaches a per-scene
    :class:`~repro.observability.tileprofile.TileProfiler` and stores
    its grids in the ``tile_profile`` blocks — strictly observational,
    but recorded in the config block so profiled and unprofiled
    documents never gate against each other.
    """
    config = GPUConfig().with_screen(width, height)
    doc: dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": {
            "width": width,
            "height": height,
            "frames": frames,
            "detail": detail,
            "quick": quick,
            "tile_profile": tile_profile,
        },
        "scenes": {},
    }
    for alias in scenes:
        if progress is not None:
            progress(alias)
        doc["scenes"][alias] = run_scene(
            alias, config, frames, detail,
            trace_dir=trace_dir, tile_profile=tile_profile,
        )
    return doc


def _fail(errors: list[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_number(errors, path, value, minimum=0.0) -> None:
    if not _is_number(value):
        _fail(errors, path, f"expected a number, got {type(value).__name__}")
    elif value < minimum:
        _fail(errors, path, f"expected >= {minimum}, got {value}")


def _check_int(errors, path, value, minimum=0) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(errors, path, f"expected an int, got {type(value).__name__}")
    elif value < minimum:
        _fail(errors, path, f"expected >= {minimum}, got {value}")


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


def _check_tile_profile(errors, base, profile, profiled) -> None:
    """Per-scene ``tile_profile`` block: ``{"enabled": False}`` alone
    when disabled; dimensions + full-length grids when enabled.
    ``enabled`` must match the document's ``config.tile_profile``
    (``profiled``; not compared when that is not a bool)."""
    ppath = f"{base}.tile_profile"
    if not isinstance(profile, Mapping):
        _fail(errors, ppath, "missing or not an object")
        return
    enabled = profile.get("enabled")
    if not isinstance(enabled, bool):
        _fail(errors, f"{ppath}.enabled", "expected a bool")
        return
    if isinstance(profiled, bool) and enabled is not profiled:
        _fail(errors, f"{ppath}.enabled",
              f"{enabled} disagrees with config.tile_profile {profiled}")
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


def _check_int_block(errors, path, block, keys) -> None:
    if not isinstance(block, Mapping):
        _fail(errors, path, "missing or not an object")
        return
    for key in keys:
        _check_int(errors, f"{path}.{key}", block.get(key))


def _operand(entry: Mapping[str, Any], path: tuple[str, ...]) -> Any:
    """The number at ``path`` in a scene entry (see :data:`IDENTITIES`),
    or ``None`` when it is missing or malformed."""
    value: Any = entry
    for key in path:
        if not isinstance(value, Mapping) or key not in value:
            return None
        value = value[key]
    if isinstance(value, list):
        return sum(value) if all(map(_is_number, value)) else None
    return value if _is_number(value) else None


def _check_identities(errors, base, entry) -> None:
    """Refuse a scene whose values break one of the model's identities.

    An identity with a missing or malformed operand is skipped: the
    layout checks already report that operand (and an unprofiled scene
    has no tile grids to check).
    """
    for name, left, right in IDENTITIES:
        lhs = [_operand(entry, path) for path in left]
        rhs = [_operand(entry, path) for path in right]
        if None in lhs or None in rhs:
            continue
        if not within_tol(sum(lhs), sum(rhs)):
            _fail(errors, base,
                  f"breaks {name}: {sum(lhs)!r} != {sum(rhs)!r}")


def _document_problems(doc: Any) -> list[str]:
    """Every problem that makes ``doc`` not a valid rbcd-bench document,
    one line each (empty when it is valid)."""
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        return ["bench document must be a JSON object"]
    if doc.get("schema") != SCHEMA_NAME:
        _fail(errors, "schema", f"expected {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    version = doc.get("version")
    if version not in SUPPORTED_VERSIONS:
        _fail(errors, "version",
              f"expected one of {SUPPORTED_VERSIONS}, got {version!r}")

    config = doc.get("config")
    if not isinstance(config, Mapping):
        _fail(errors, "config", "missing or not an object")
        config = {}
    else:
        for key in ("width", "height", "frames", "detail"):
            _check_int(errors, f"config.{key}", config.get(key), minimum=1)
        for key in ("quick", "tile_profile"):
            if not isinstance(config.get(key), bool):
                _fail(errors, f"config.{key}", "expected a bool")

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
            _check_int(errors, f"{spath}.count", record.get("count"), minimum=1)
            _check_number(errors, f"{spath}.cycles", record.get("cycles"))

        totals = entry.get("totals")
        _check_int_block(
            errors, f"{base}.totals", totals,
            ("fragments_produced", "pair_records_written", "colliding_pairs"),
        )
        if isinstance(totals, Mapping):
            _check_number(errors, f"{base}.totals.gpu_cycles",
                          totals.get("gpu_cycles"))

        counters = entry.get("counters")
        if not isinstance(counters, Mapping) or not counters:
            _fail(errors, f"{base}.counters", "missing, not an object, or empty")
        else:
            for name, value in counters.items():
                if not _is_number(value):
                    _fail(errors, f"{base}.counters.{name}",
                          f"expected a number, got {type(value).__name__}")
            for name in REQUIRED_COUNTERS:
                if name not in counters:
                    _fail(errors, f"{base}.counters",
                          f"missing counter {name!r}")

        _check_energy(errors, base, entry.get("energy"))
        _check_int_block(errors, f"{base}.cases", entry.get("cases"), _CASE_KEYS)
        _check_int_block(
            errors, f"{base}.oracle", entry.get("oracle"), _ORACLE_KEYS
        )
        _check_tile_profile(
            errors, base, entry.get("tile_profile"), config.get("tile_profile")
        )
        _check_identities(errors, base, entry)
    return errors


def validate_bench_document(doc: Any) -> None:
    """Raise ``ValueError`` (listing every problem) if ``doc`` is not a
    well-formed rbcd-bench document whose scenes keep the model's
    :data:`IDENTITIES`.

    Accepts only the versions in :data:`SUPPORTED_VERSIONS`.  Unknown
    *extra* keys are tolerated here; the gate, which compares every
    value, is where an extra field counts as a change.
    """
    errors = _document_problems(doc)
    if errors:
        raise ValueError(
            "invalid rbcd-bench document:\n  " + "\n  ".join(errors)
        )


def gate_against_baseline(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
) -> GateReport:
    """Compare a fresh document against a baseline document.

    Both documents are validated first, one error per problem; an
    invalid one fails the gate before any value is compared.
    """
    report = GateReport()
    for label, doc in (("baseline", baseline), ("current", current)):
        report.errors.extend(
            f"{label} document invalid: {problem}"
            for problem in _document_problems(doc)
        )
    if report.errors:
        return report
    return compare_documents(baseline, current)


def history_line(doc: Mapping[str, Any]) -> str:
    """One ndjson line summarizing a bench document for the history log.

    One JSON object per *scene* field inside a single line per run:
    schema version, workload config fingerprint, and per-scene
    gpu_cycles / total_j / EDP — enough to plot a metric's
    trajectory, small enough to append forever.  No timestamps: the
    append order is the history.
    """
    config = doc.get("config", {})
    record: dict[str, Any] = {
        "schema": doc.get("schema"),
        "version": doc.get("version"),
        "config": {
            key: config.get(key)
            for key in ("width", "height", "frames", "detail", "tile_profile")
        },
        "scenes": {},
    }
    for alias, entry in doc.get("scenes", {}).items():
        totals = entry.get("totals", {})
        energy = entry.get("energy", {})
        record["scenes"][alias] = {
            "gpu_cycles": totals.get("gpu_cycles"),
            "total_j": energy.get("total_j"),
            "edp_js": energy.get("edp_js"),
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
        description="Model outputs of the paper's four scenes, with energy "
                    "accounting, oracle agreement and an exact baseline gate.",
    )
    parser.add_argument(
        "--scenes", nargs="+", choices=BENCHMARKS, default=list(BENCHMARKS),
        help="benchmark aliases to run (default: all four)",
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
        "--frames", type=int, default=None,
        help=f"animation frames per scene (default: {_DEFAULTS['frames']})",
    )
    parser.add_argument(
        "--detail", type=int, default=None,
        help=f"mesh tessellation detail (default: {_DEFAULTS['detail']})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI preset: {width}x{height}, {frames} frames, detail {detail}; "
             "excludes the four flags above".format(**QUICK_PRESET),
    )
    parser.add_argument(
        "--tile-profile", action="store_true",
        help="record per-tile cycle/energy/activity grids into the "
             "tile_profile blocks (strictly observational; the gate then "
             "names every tile cell that changed)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="output JSON path (default: BENCH_rbcd.json; with "
             "--baseline, nothing is written unless this is given)",
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
        help="exit non-zero when any value differs from the baseline "
             "(requires --baseline)",
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
    preset = QUICK_PRESET if args.quick else _DEFAULTS
    for key, value in preset.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
        elif args.quick:
            parser.error(f"--{key} cannot be combined with --quick")

    doc = run_bench(
        args.scenes, args.width, args.height, args.frames, args.detail,
        quick=args.quick, trace_dir=args.trace_dir,
        tile_profile=args.tile_profile,
        progress=lambda alias: print(f"bench: {alias} ...", flush=True),
    )
    validate_bench_document(doc)
    if args.output is None and args.baseline is None:
        args.output = Path("BENCH_rbcd.json")
    if args.output is not None:
        args.output.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    if args.append_history is not None:
        append_history(doc, args.append_history)
        print(f"appended history line to {args.append_history}")
    for alias, entry in doc["scenes"].items():
        totals = entry["totals"]
        oracle = entry["oracle"]
        energy = entry["energy"]
        print(
            f"  {alias}: {totals['fragments_produced']} fragments, "
            f"{totals['colliding_pairs']} pairs "
            f"(oracle tp/fp/fn {oracle['tp']}/{oracle['fp']}/{oracle['fn']}), "
            f"{energy['total_j'] * 1e3:.3f} mJ, "
            f"EDP {energy['edp_js'] * 1e6:.3f} uJs"
        )

    if args.baseline is not None:
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            report = GateReport(errors=[f"baseline unreadable: {exc}"])
        else:
            report = gate_against_baseline(doc, baseline)
        print(f"baseline: {args.baseline}")
        print(report.render())
        if not report.ok:
            print(report.failure_line(), file=sys.stderr)
            if args.gate:
                print("gate: FAILED", file=sys.stderr)
                return 1
            # An unusable baseline fails in both modes; only a value
            # change is informational without --gate.
            if report.errors:
                print("gate: baseline refused", file=sys.stderr)
                return 1
            print("gate: values changed (informational; pass --gate "
                  "to enforce)")
        else:
            print("gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
