"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload frames_geometry --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run (see
README.md).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result document (host fingerprint, per-frame times, set-up times
and, when traced, every span) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is first imported: one thread each,
# so no library pool competes with the simulator for the host's cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

# (name, unit) of the metrics each mode reports, in BENCHMARK.json order.
END_TO_END = (
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_frags_per_s", "1/s"),
    ("sim_cycles_per_frame", "cycles"),
    ("sim_joules_per_frame", "J"),
    ("pair_recall", "ratio"),
    ("pair_precision", "ratio"),
    ("frames_ok_ratio", "ratio"),
)
PER_LAYER = (
    ("scenes.frame_at_ms", "ms"),
    ("gpu.shading.shade_draws_ms", "ms"),
    ("gpu.shading.vertices_shaded", "count"),
    ("gpu.assembly.assemble_ms", "ms"),
    ("gpu.assembly.triangles", "count"),
    ("gpu.assembly.binned_ratio", "ratio"),
    ("gpu.tiling.bin_ms", "ms"),
    ("gpu.tiling.fetch_ms", "ms"),
    ("gpu.tiling.prim_tile_pairs", "count"),
    ("gpu.caches.access_ms", "ms"),
    ("gpu.caches.accesses", "count"),
    ("gpu.caches.hit_ratio", "ratio"),
    ("gpu.raster.rasterize_ms", "ms"),
    ("gpu.raster.fragments", "count"),
    ("gpu.earlyz.depth_test_ms", "ms"),
    ("gpu.earlyz.pass_ratio", "ratio"),
    ("gpu.fragment.shade_ms", "ms"),
    ("gpu.parallel.gather_ms", "ms"),
    ("gpu.parallel.run_ms", "ms"),
    ("gpu.parallel.dispatch_ms", "ms"),
    ("rbcd.compute_tile_ms", "ms"),
    ("rbcd.absorb_ms", "ms"),
    ("rbcd.tiles", "count"),
    ("rbcd.zeb_insertions", "count"),
    ("rbcd.overflow_ratio", "ratio"),
    ("rbcd.pair_records", "count"),
    ("energy.frame_report_ms", "ms"),
    ("gpu.pipeline.frame_ms", "ms"),
    ("gpu.pipeline.self_ms", "ms"),
    ("gpu.pipeline.residual_ratio", "ratio"),
    ("serve.step_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batches", "ratio"),
    ("serve.rejections", "count"),
    ("observability.monitor_observe_ms", "ms"),
    ("observability.recorder_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
)


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-frames", type=int, default=None,
        help="smoke run: stop after this many frames, one set-up",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import SPECS, measure

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(SPECS)}", file=sys.stderr)
        return 2

    smoke = {} if args.max_frames is None else {
        "max_frames": args.max_frames, "setups": 1,
    }
    document = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), **smoke
    )
    document["host"] = host_fingerprint()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(document) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": document["metrics"][name], "unit": unit}
        for name, unit in wanted
    }
    print(f"host: {json.dumps(document['host'], sort_keys=True)}")
    print(f"result document: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": document["failed"] == 0 and document["attempted"] > 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
