"""Output checks: the committed per-frame reference and the exact oracle.

The reference holds, for every grid frame of a workload, the outputs
the simulator is deterministic in: the sorted colliding pair set,
simulated GPU cycles, modelled joules, fragments produced and pair
records written.  Every frame a run detects is compared with it, so a
wrong answer counts as a failed frame however fast it came back.

The oracle is the software pipeline's LBVH ``broad+exact`` mode over
the render meshes (the surfaces the rasterizer sees), as in
:func:`repro.observability.forensics.run_forensics`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


@dataclass(frozen=True)
class FrameOutput:
    """The deterministic outputs of one detected frame."""

    pairs: tuple[tuple[int, int], ...]
    gpu_cycles: float
    joules: float
    fragments: int
    pair_records: int

    @classmethod
    def of(cls, result) -> "FrameOutput":
        """Summarise a :class:`repro.core.RBCDFrameResult`."""
        return cls(
            pairs=tuple(sorted(result.pairs)),
            gpu_cycles=float(result.stats.gpu_cycles),
            joules=float(result.energy.total_j),
            fragments=int(result.stats.fragments_produced),
            pair_records=int(result.report.pair_records_written),
        )

    def as_record(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "gpu_cycles": self.gpu_cycles,
            "joules": self.joules,
            "fragments": self.fragments,
            "pair_records": self.pair_records,
        }

    @classmethod
    def from_record(cls, record: dict) -> "FrameOutput":
        return cls(
            pairs=tuple(tuple(p) for p in record["pairs"]),
            gpu_cycles=float(record["gpu_cycles"]),
            joules=float(record["joules"]),
            fragments=int(record["fragments"]),
            pair_records=int(record["pair_records"]),
        )


Reference = dict[str, list[FrameOutput]]  # scene alias -> per grid frame


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Reference:
    document = json.loads(reference_path(workload).read_text())
    return {
        alias: [FrameOutput.from_record(r) for r in records]
        for alias, records in document["frames"].items()
    }


def write_reference(workload: str, config: dict, reference: Reference) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload,
        "config": config,
        "frames": {
            alias: [output.as_record() for output in outputs]
            for alias, outputs in reference.items()
        },
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def oracle_pairs(workload, times) -> list[set[tuple[int, int]]]:
    """Exact colliding pairs of ``workload``'s scene at each time."""
    from repro.physics.world import CollisionWorld

    scene = workload.scene
    world = CollisionWorld("lbvh")
    objects = [
        (scene.object_id(obj.name), obj)
        for obj in scene.objects
        if obj.collisionable
    ]
    for object_id, obj in objects:
        world.add_object(object_id, obj.mesh)
    pairs = []
    for t in times:
        for object_id, obj in objects:
            world.set_transform(object_id, obj.animator.transform(float(t)))
        pairs.append({tuple(p) for p in world.detect("broad+exact").pairs})
    return pairs


def agreement(
    found: list[set], exact: list[set]
) -> tuple[float, float]:
    """(recall, precision) of ``found`` against ``exact``, frame by frame."""
    hits = sum(len(f & e) for f, e in zip(found, exact))
    n_exact = sum(len(e) for e in exact)
    n_found = sum(len(f) for f in found)
    recall = hits / n_exact if n_exact else 1.0
    precision = hits / n_found if n_found else 1.0
    return recall, precision
