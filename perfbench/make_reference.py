"""Regenerate the committed per-frame references under ``references/``.

Usage, from the repository root::

    python3 perfbench/make_reference.py [WORKLOAD ...]

Renders every grid frame of each workload once through a serial,
observer-free ``RBCDSystem`` and records its deterministic outputs.
The serving workload's tenants must match the same bare path: the
service's isolation contract makes each tenant's results identical to
running its stream alone.  Regenerate only when a change declares that
it alters the simulated model.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.core import RBCDSystem
    from repro.scenes.benchmarks import workload_by_alias

    from perfbench.checks import FrameOutput, write_reference
    from perfbench.workloads import (
        GRID_FRAMES, SCENES, SPECS, config_record, gpu_config,
    )

    for name in argv or sorted(SPECS):
        spec = SPECS[name]
        config = gpu_config(spec)
        reference = {}
        with RBCDSystem(config=config) as system:
            for alias in SCENES:
                workload = workload_by_alias(alias, spec.detail)
                reference[alias] = [
                    FrameOutput.of(
                        system.detect_frame(workload.scene.frame_at(float(t), config))
                    )
                    for t in workload.times(GRID_FRAMES)
                ]
        path = write_reference(name, config_record(spec), reference)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
