"""Collision provenance: per-pair evidence for every emitted pair.

The Z-Overlap Test (Section 3.5 / Figure 5) emits a pair from exactly
one place: a back-face element closing an interval on the FF-Stack at
one pixel of one tile.  This module captures that emission site — the
*evidence set* — so accuracy analyses (Fig. 2) and overflow analyses
(Table 3) can be reproduced with explanations attached, not just
totals:

* witness tile and global pixel coordinates;
* the two ZEB elements involved (quantized z codes, dequantized
  depths, object ids, front/back tags);
* FF-Stack occupancy at the moment of emission;
* the Figure-5 interference case (see ``rbcd.overlap.CASE_NAMES``).

Design invariant — *strictly observational*: the evidence fields are
computed unconditionally inside :func:`repro.rbcd.overlap.analyze_tile`
(they ride in :class:`~repro.rbcd.overlap.OverlapResult`), and the
recorder merely reads the pair columns of the frame's
:class:`~repro.rbcd.unit.RBCDTiles` in its ``record_tiles`` hook,
which the pipeline calls right after :meth:`RBCDUnit.absorb`.
Detection results, ``rbcd.*`` counters, and energy reports are
therefore bit-identical with the recorder on or off
(``tests/integration/test_observer_differential.py``).

Recordings come out ordered by ``(frame, tile, record)``, where
``record`` is the emission index within the tile's output buffer: the
result's pairs are in tile-schedule order, and every evidence record
corresponds 1:1 (same order) to a contact record in the frame's
:class:`~repro.rbcd.pairs.CollisionReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.observability.counters import CounterRegistry
from repro.observability.observer import FrameObserver
from repro.rbcd.element import dequantize_depth
from repro.rbcd.overlap import (
    CASE_CROSSING,
    CASE_DISJOINT,
    CASE_NAMES,
    CASE_NESTED,
)

__all__ = [
    "PairEvidence",
    "ProvenanceRecorder",
    "validate_evidence_record",
    "validate_provenance_ndjson",
]


@dataclass(frozen=True)
class PairEvidence:
    """The evidence set for one emitted pair record."""

    frame: int          # frame index (recorder-local, 0-based)
    tile: int           # tile index within the framebuffer
    record: int         # emission index within the tile's output buffer
    x: int              # witness pixel, global coordinates
    y: int
    id_front: int       # the stacked front-face element's object (Idi)
    id_back: int        # the closing back-face element's object (Idcur)
    z_front_code: int   # quantized ZEB z codes of the two elements
    z_back_code: int
    z_front: float      # the same depths dequantized to [0, 1]
    z_back: float
    stack_depth: int    # FF-Stack occupancy at emission
    case_id: int        # Figure-5 case (CASE_* in repro.rbcd.overlap)

    @property
    def case(self) -> str:
        return CASE_NAMES[self.case_id]

    @property
    def pair(self) -> tuple[int, int]:
        """The canonical ``(low, high)`` object-id pair."""
        a, b = self.id_front, self.id_back
        return (a, b) if a <= b else (b, a)

    def as_record(self) -> dict:
        """The ndjson evidence record (see MODEL.md §9 for the schema)."""
        return {
            "type": "pair",
            "frame": self.frame,
            "tile": self.tile,
            "record": self.record,
            "pixel": [self.x, self.y],
            "pair": list(self.pair),
            "elements": [
                {
                    "object": self.id_front,
                    "z_code": self.z_front_code,
                    "z": self.z_front,
                    "face": "front",
                },
                {
                    "object": self.id_back,
                    "z_code": self.z_back_code,
                    "z": self.z_back,
                    "face": "back",
                },
            ],
            "stack_depth": self.stack_depth,
            "case_id": self.case_id,
            "case": self.case,
        }


class ProvenanceRecorder(FrameObserver):
    """Opt-in, strictly observational collector of pair evidence.

    A :class:`~repro.observability.observer.FrameObserver`: pass one in
    ``observers=``; each RBCD frame then appends its evidence.  The
    recorder also tallies Figure-5 case histograms, exposed as
    ``rbcd.case.*`` / ``rbcd.evidence.*`` counters via :meth:`registry`
    — deliberately in a *separate* registry from the unit's own
    counters, so enabling recording cannot change any existing counter
    value.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.records: list[PairEvidence] = []
        self.config = None  # the GPUConfig of the frame being recorded
        self.frames = 0
        self.tiles_recorded = 0
        self.case_counts = {
            CASE_DISJOINT: 0,
            CASE_CROSSING: 0,
            CASE_NESTED: 0,
        }
        self.self_pairs_filtered = 0

    # -- FrameObserver hooks ------------------------------------------------

    def begin_frame(self, config) -> None:
        """Start a new frame; its ``GPUConfig`` maps tiles to pixels."""
        self.config = config
        self.frames += 1

    @property
    def current_frame(self) -> int:
        return max(self.frames - 1, 0)

    def record_tiles(self, result) -> None:
        """Collect the evidence of a frame's absorbed
        :class:`~repro.rbcd.unit.RBCDTiles`, in output-buffer order."""
        self.tiles_recorded += len(result)
        overlap = result.overlap
        self.case_counts[CASE_DISJOINT] += overlap.disjoint_closures
        self.case_counts[CASE_CROSSING] += int(
            (overlap.pair_case == CASE_CROSSING).sum()
        )
        self.case_counts[CASE_NESTED] += int(
            (overlap.pair_case == CASE_NESTED).sum()
        )
        self.self_pairs_filtered += overlap.self_pairs_filtered
        # Each record's tile, and its index within that tile's records.
        per_tile = np.diff(result.pair_offsets)
        tile = np.repeat(result.tile_index, per_tile)
        record = np.arange(overlap.pair_records) - np.repeat(
            result.pair_offsets[:-1], per_tile
        )
        frame = self.current_frame
        config = self.config.rbcd
        self.records.extend(
            PairEvidence(frame, *row)
            for row in zip(
                tile.tolist(),
                record.tolist(),
                result.x.tolist(),
                result.y.tolist(),
                overlap.pair_id_a.tolist(),
                overlap.pair_id_b.tolist(),
                overlap.pair_z_front.tolist(),
                overlap.pair_z_back.tolist(),
                dequantize_depth(overlap.pair_z_front, config).tolist(),
                dequantize_depth(overlap.pair_z_back, config).tolist(),
                overlap.pair_stack_depth.tolist(),
                overlap.pair_case.tolist(),
            )
        )

    # -- views --------------------------------------------------------------

    @property
    def pairs_recorded(self) -> int:
        return len(self.records)

    def case_histogram(self) -> dict[str, int]:
        """Figure-5 case counts by name (closure events + emissions)."""
        return {
            CASE_NAMES[case]: count
            for case, count in sorted(self.case_counts.items())
        }

    def registry(self) -> CounterRegistry:
        """``rbcd.case.*`` / ``rbcd.evidence.*`` counters.

        A separate registry from the frame's ``GPUStats`` counters so
        the recorder never perturbs existing counter values; merge it
        into a frame registry explicitly when a combined view is
        wanted.
        """
        registry = CounterRegistry()
        for name, value, description in (
            ("rbcd.case.disjoint", self.case_counts[CASE_DISJOINT],
             "closures emitting no pair (Fig. 5 cases 1/6 + inner nests)"),
            ("rbcd.case.crossing", self.case_counts[CASE_CROSSING],
             "pairs from partially crossing intervals (Fig. 5 cases 2/5)"),
            ("rbcd.case.nested", self.case_counts[CASE_NESTED],
             "pairs from nested intervals (Fig. 5 cases 3/4)"),
            ("rbcd.case.self_filtered", self.self_pairs_filtered,
             "suppressed Idi == Idcur emissions (one concave object)"),
            ("rbcd.evidence.pairs", self.pairs_recorded,
             "pair-evidence records collected"),
            ("rbcd.evidence.tiles", self.tiles_recorded,
             "tiles observed by the recorder"),
            ("rbcd.evidence.frames", self.frames,
             "RBCD frames observed by the recorder"),
        ):
            registry.counter(name, description=description)
            registry.set(name, value)
        return registry

    def pairs_for(
        self, id_a: int, id_b: int, frame: int | None = None
    ) -> list[PairEvidence]:
        """All evidence records for one object pair (any orientation)."""
        key = (min(id_a, id_b), max(id_a, id_b))
        return [
            ev
            for ev in self.records
            if ev.pair == key and (frame is None or ev.frame == frame)
        ]

    def witness_pixels(
        self, id_a: int, id_b: int, frame: int | None = None
    ) -> list[tuple[int, int]]:
        """Sorted distinct pixels where a pair was emitted."""
        return sorted({(ev.x, ev.y) for ev in self.pairs_for(id_a, id_b, frame)})


# ---------------------------------------------------------------------------
# Evidence-record validation (the ndjson export's schema, enforced)
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "type", "frame", "tile", "record", "pixel", "pair", "elements",
    "stack_depth", "case_id", "case",
)


def validate_evidence_record(record: dict) -> list[str]:
    """Errors making ``record`` an invalid evidence record (empty = ok)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    for fields in _REQUIRED_FIELDS:
        if fields not in record:
            errors.append(f"missing field {fields!r}")
    if errors:
        return errors
    if record["type"] != "pair":
        errors.append(f'type is {record["type"]!r}, expected "pair"')
    for name in ("frame", "tile", "record", "stack_depth"):
        value = record[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{name} must be a non-negative integer")
    if record.get("stack_depth") == 0:
        errors.append("stack_depth must be >= 1 at emission")
    pixel = record["pixel"]
    if (
        not isinstance(pixel, list)
        or len(pixel) != 2
        or not all(isinstance(v, int) and v >= 0 for v in pixel)
    ):
        errors.append("pixel must be [x, y] with non-negative integers")
    pair = record["pair"]
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(v, int) and v >= 0 for v in pair)
        or pair[0] >= pair[1]
    ):
        errors.append("pair must be [low, high] with low < high")
    elements = record["elements"]
    if not isinstance(elements, list) or len(elements) != 2:
        errors.append("elements must list exactly the two ZEB elements")
    else:
        for element, face in zip(elements, ("front", "back")):
            if not isinstance(element, dict):
                errors.append(f"{face} element must be an object")
                continue
            if element.get("face") != face:
                errors.append(f'element {face} has face {element.get("face")!r}')
            if not isinstance(element.get("object"), int) or element["object"] < 0:
                errors.append(f"{face} element needs a non-negative object id")
            if not isinstance(element.get("z_code"), int) or element["z_code"] < 0:
                errors.append(f"{face} element needs a non-negative z_code")
            z = element.get("z")
            if not isinstance(z, (int, float)) or not 0.0 <= float(z) <= 1.0:
                errors.append(f"{face} element needs z in [0, 1]")
    case_id = record["case_id"]
    if case_id not in CASE_NAMES:
        errors.append(f"case_id {case_id!r} not a Figure-5 case")
    elif record["case"] != CASE_NAMES[case_id]:
        errors.append(
            f'case {record["case"]!r} does not match case_id {case_id}'
        )
    return errors


def validate_provenance_ndjson(text: str) -> int:
    """Validate an exported evidence log; returns the record count.

    Raises :class:`ValueError` naming the first offending line.  Used
    by the CI smoke job and the forensics CLI's self-check.
    """
    count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON ({exc})") from exc
        errors = validate_evidence_record(record)
        if errors:
            raise ValueError(f"line {lineno}: {'; '.join(errors)}")
        count += 1
    return count
