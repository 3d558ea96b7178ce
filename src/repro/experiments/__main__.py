"""Command-line evaluation runner.

Regenerates every figure and table of the paper's evaluation section
and prints them as ASCII tables:

    python -m repro.experiments [--width W] [--height H] [--frames N]
                                [--detail D]

Full WVGA (the default) takes a few minutes; ``--width 400 --height 240``
gives a quick pass with the same shapes.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import figures, tables
from repro.experiments.runner import run_all_benchmarks, run_overflow_sweeps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    parser.add_argument("--width", type=int, default=800)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--detail", type=int, default=2)
    args = parser.parse_args(argv)

    start = time.time()
    print(
        f"Simulating 4 benchmarks at {args.width}x{args.height}, "
        f"{args.frames} frames each (two GPU configs + two CPU baselines)...",
        flush=True,
    )
    runs = run_all_benchmarks(
        width=args.width, height=args.height, frames=args.frames,
        detail=args.detail,
    )
    print(f"...done in {time.time() - start:.0f}s\n")

    for figure in (
        figures.fig8a_speedup_broad(runs),
        figures.fig8b_energy_broad(runs),
        figures.fig8c_speedup_gjk(runs),
        figures.fig8d_energy_gjk(runs),
        figures.fig9a_normalized_time(runs),
        figures.fig9b_normalized_energy(runs),
        figures.fig10_time_breakdown(runs),
        figures.fig11_activity_factors(runs),
    ):
        print(tables.render_figure(figure))
        print()

    print("Sweeping ZEB list lengths for Table 3...", flush=True)
    sweeps = run_overflow_sweeps(
        width=args.width, height=args.height, frames=args.frames,
        detail=args.detail,
    )
    print(tables.render_figure(figures.table3_overflow(sweeps)))
    detected = all(s.all_collisions_detected(8, 16) for s in sweeps)
    print(f"\nAll collisions still detected at M=8: {detected}")
    print(f"\nTotal wall time: {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
