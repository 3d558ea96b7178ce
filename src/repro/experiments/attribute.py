"""Regression attribution CLI: explain the delta between two bench runs.

Diffs two bench documents (:mod:`repro.experiments.bench` JSON, any
supported schema version) through the hierarchical attribution engine
(:mod:`repro.observability.attribution`) and prints a ranked report:
every top-level cycle/joule delta decomposed into
exactly-summing child contributions with explicit residuals, plus a
per-tile spatial localization when both documents carry schema-v6
``tile_profile`` grids::

    PYTHONPATH=src python -m repro.experiments.attribute BASE.json OTHER.json
    PYTHONPATH=src python -m repro.experiments.attribute BASE.json OTHER.json \
        --format json --top-k 20
    PYTHONPATH=src python -m repro.experiments.attribute BASE.json OTHER.json \
        --heatmap-dir out/heatmaps

Exit status: 0 on a successful attribution, 1 when ``--check-zero`` is
given and any metric delta is nonzero (the self-check: a document
diffed against itself must attribute to all-zero), 2 on structural
errors (unreadable/invalid documents, missing scenes, or a document
whose internal counter algebra fails its cross-checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.observability.attribution import attribute_documents
from repro.observability.export import render_heatmap_ascii, write_heatmap_csv


def _load(path: Path, errors: list[str]):
    try:
        with path.open() as handle:
            return json.load(handle)
    except OSError as exc:
        errors.append(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        errors.append(f"{path} is not valid JSON: {exc}")
    return None


def write_heatmaps(report, directory: Path) -> list[Path]:
    """One CSV per scene per delta grid, named ``<scene>_<grid>.csv``."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for scene, attribution in report.scenes.items():
        spatial = attribution.spatial
        if spatial is None:
            continue
        for name, grid in spatial.grids.items():
            written.append(write_heatmap_csv(
                grid, spatial.tiles_x, spatial.tiles_y,
                directory / f"{scene}_{name}.csv",
            ))
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.attribute",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("baseline", type=Path, help="baseline bench document")
    parser.add_argument("current", type=Path, help="bench document to explain")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--top-k", type=int, default=10, metavar="K",
        help="ranked causes to print (default: 10)",
    )
    parser.add_argument(
        "--all-trees", action="store_true",
        help="text format: print unchanged trees too",
    )
    parser.add_argument(
        "--heatmap", action="store_true",
        help="text format: append ASCII tile heatmaps of the cycle delta",
    )
    parser.add_argument(
        "--heatmap-dir", type=Path, metavar="DIR",
        help="write per-scene per-grid delta heatmap CSVs into DIR",
    )
    parser.add_argument(
        "--check-zero", action="store_true",
        help="exit 1 unless every metric delta is zero (self-check)",
    )
    args = parser.parse_args(argv)

    load_errors: list[str] = []
    baseline = _load(args.baseline, load_errors)
    current = _load(args.current, load_errors)
    if load_errors:
        for err in load_errors:
            print(f"error: {err}", file=sys.stderr)
        return 2

    report = attribute_documents(baseline, current)

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.render_text(top_k=args.top_k, all_trees=args.all_trees))
        if args.heatmap:
            for scene, attribution in report.scenes.items():
                spatial = attribution.spatial
                if spatial is None or "cycles" not in spatial.grids:
                    continue
                print(f"\n{scene} cycles delta "
                      f"({spatial.tiles_x}x{spatial.tiles_y} tiles):")
                print(render_heatmap_ascii(
                    spatial.grids["cycles"], spatial.tiles_x, spatial.tiles_y
                ))

    if args.heatmap_dir is not None:
        written = write_heatmaps(report, args.heatmap_dir)
        print(f"wrote {len(written)} heatmap CSVs to {args.heatmap_dir}",
              file=sys.stderr)

    if not report.ok:
        for err in report.errors:
            print(f"error: {err}", file=sys.stderr)
        for check in report.checks:
            print(f"cross-check failed: {check}", file=sys.stderr)
        return 2
    if args.check_zero and not report.all_zero:
        print("check-zero: documents differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
