"""Regression attribution: hierarchical diffing of two bench documents.

The regression gate (:mod:`repro.observability.regress`) says *that* a
metric moved; this module says *where*.  Given two bench documents
(:mod:`repro.experiments.bench`, any supported schema version), it
builds per-scene **delta trees**: each top-level cycle/joule/wall
metric decomposed into child contributions whose deltas sum to the
parent's — with an explicit ``residual`` term on every non-leaf node,
never silent.  Nodes come in three kinds:

* ``exact`` — counter-derived algebraic identities of the model
  (``gpu_cycles = geometry + raster_pipeline``, ``total_j = gpu +
  rbcd``, ``rbcd.tile = zeb-insert + z-overlap``, and the
  counter-namespace sums).  The
  residual is zero up to float noise, and
  :func:`cross_check_document` verifies the same identities *inside*
  each document against the counter algebra, so a decomposition can
  never drift from what the counters say.
* ``structural`` — honest decompositions that are not sums
  (``geometry_cycles`` is the *max* of its pipelined stages; the
  raster pipeline interleaves busy, stall, and overlap-bound time).
  The residual carries whatever the children don't cover.
* ``wall`` — host wall-time medians down the stage span tree, with the
  shared significance evidence
  (:func:`repro.observability.stats.significance_of`) annotated per
  child; the residual is untraced host time.

When both documents carry schema-v6 ``tile_profile`` grids
(:class:`~repro.observability.tileprofile.TileProfiler`), a spatial
layer localizes the per-scene cycle/energy deltas to screen tiles
("92 % of the extra ZEB cycles sit in 6 tiles") and can emit heatmap
CSV/ASCII artifacts via :mod:`repro.observability.export`.

Entry points: :func:`attribute_documents` (library),
``python -m repro.experiments.attribute`` (CLI), and
``bench --gate --explain`` (top-k causes on gate failure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterator, Mapping

from repro.observability.regress import CONFIG_TABLE
from repro.observability.stats import significance_of

__all__ = [
    "DeltaNode",
    "SpatialDelta",
    "SceneAttribution",
    "AttributionReport",
    "attribute_documents",
    "cross_check_document",
]

# Relative tolerance for the "exact" contract: counter-derived
# decompositions must sum to their parent within float-summation noise.
EXACT_REL_TOL = 1e-9
_ABS_FLOOR = 1e-12

# Top-level stage spans whose wall time tiles the frame span (the
# remainder — python glue between spans — is the wall residual).
_TOP_STAGES = ("geometry", "raster", "rbcd", "schedule")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(abs(a), abs(b)) * EXACT_REL_TOL + _ABS_FLOOR


def _dig(mapping: Any, dotted: str):
    """Resolve a dotted path through nested dicts, trying every prefix
    split (longest literal key first).

    Stage names themselves contain dots and key *records* ("stages" ->
    "rbcd.tile" -> "cycles"), while counter names are flat dotted keys
    ("counters" -> "gpu.mem.dram_bytes_read"), so neither plain
    segment-wise descent nor whole-tail lookup covers both — this tries
    all splits.
    """
    if not isinstance(mapping, Mapping):
        return None
    if dotted in mapping:
        return mapping[dotted]
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        head = ".".join(parts[:i])
        if head in mapping:
            value = _dig(mapping[head], ".".join(parts[i:]))
            if value is not None:
                return value
    return None


@dataclass
class DeltaNode:
    """One metric of one scene, in both documents, with children whose
    deltas explain this node's delta."""

    path: str             # dotted path into the scene entry (or synthetic)
    kind: str             # "exact" | "structural" | "wall"
    baseline: float
    current: float
    children: list["DeltaNode"] = field(default_factory=list)
    unit: str = ""
    note: str = ""

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    @property
    def child_sum(self) -> float:
        return sum(c.delta for c in self.children)

    @property
    def residual(self) -> float:
        """What the children's deltas fail to explain.  Zero (up to
        float noise) on ``exact`` nodes; honest slack elsewhere.
        Zero by convention on leaves."""
        if not self.children:
            return 0.0
        return self.delta - self.child_sum

    def leaves(self) -> Iterator["DeltaNode"]:
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "DeltaNode"]]:
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, path: str) -> "DeltaNode | None":
        for _, node in self.walk():
            if node.path == path:
                return node
        return None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "path": self.path,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
        }
        if self.unit:
            out["unit"] = self.unit
        if self.note:
            out["note"] = self.note
        if self.children:
            out["residual"] = self.residual
            out["children"] = [c.as_dict() for c in self.children]
        return out


@dataclass
class SpatialDelta:
    """Per-tile delta grids between two scenes' ``tile_profile`` blocks."""

    tiles_x: int
    tiles_y: int
    grids: dict[str, list[float]]  # grid name -> per-tile delta

    def total(self, name: str) -> float:
        return sum(self.grids[name])

    def top_tiles(
        self, name: str, coverage: float = 0.9
    ) -> list[tuple[int, float]]:
        """Smallest set of tiles covering ``coverage`` of the grid's
        total absolute delta, as ``(tile_index, delta)`` sorted by
        magnitude (ties broken by tile index, so the answer is
        deterministic)."""
        grid = self.grids[name]
        mass = sum(abs(v) for v in grid)
        if mass <= 0.0:
            return []
        ranked = sorted(
            ((i, v) for i, v in enumerate(grid) if v != 0.0),
            key=lambda item: (-abs(item[1]), item[0]),
        )
        picked: list[tuple[int, float]] = []
        covered = 0.0
        for index, value in ranked:
            picked.append((index, value))
            covered += abs(value)
            if covered >= coverage * mass:
                break
        return picked

    def summary(self, name: str, coverage: float = 0.9) -> str:
        """One sentence localizing a grid's delta, e.g. ``cycles:
        +1234 total, 3/48 tiles cover 92% of the change``."""
        grid = self.grids[name]
        mass = sum(abs(v) for v in grid)
        if mass <= 0.0:
            return f"{name}: unchanged in every tile"
        top = self.top_tiles(name, coverage)
        covered = sum(abs(v) for _, v in top)
        cells = ", ".join(
            f"({i % self.tiles_x},{i // self.tiles_x}){v:+.4g}"
            for i, v in top[:6]
        )
        more = "" if len(top) <= 6 else f", +{len(top) - 6} more"
        return (
            f"{name}: {self.total(name):+.6g} total, "
            f"{len(top)}/{len(grid)} tiles cover "
            f"{covered / mass:.0%} of the change [{cells}{more}]"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "tiles_x": self.tiles_x,
            "tiles_y": self.tiles_y,
            "grids": {name: list(grid) for name, grid in self.grids.items()},
        }


@dataclass
class SceneAttribution:
    """Every delta tree (and the optional spatial layer) of one scene."""

    scene: str
    trees: list[DeltaNode] = field(default_factory=list)
    spatial: SpatialDelta | None = None

    def find(self, path: str) -> DeltaNode | None:
        for tree in self.trees:
            node = tree.find(path)
            if node is not None:
                return node
        return None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "scene": self.scene,
            "trees": [t.as_dict() for t in self.trees],
        }
        if self.spatial is not None:
            out["spatial"] = self.spatial.as_dict()
        return out


# Tree roots excluded from cross-tree ranking: the counter-namespace
# walk sums mixed units (cycles + bytes + joules), which is exact as a
# structural decomposition but meaningless as a ranked magnitude.
_UNRANKED_PREFIX = "counters:"


@dataclass
class AttributionReport:
    """The full differential: per-scene trees, checks, and diagnostics."""

    scenes: dict[str, SceneAttribution] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)  # failed cross-checks

    @property
    def ok(self) -> bool:
        return not self.errors and not self.checks

    @property
    def all_zero(self) -> bool:
        """True when every node of every tree has a zero delta (the
        self-comparison invariant CI asserts)."""
        return all(
            node.delta == 0.0
            for attribution in self.scenes.values()
            for tree in attribution.trees
            for _, node in tree.walk()
        )

    def ranked_causes(self, top_k: int = 10) -> list[dict[str, Any]]:
        """Leaf contributions ranked by their share of the tree root's
        delta, across every scene and rankable tree.

        ``share`` is signed: +0.92 means the leaf explains 92 % of the
        root's movement in the same direction; negative shares moved
        against it.  Trees whose root didn't move contribute nothing.
        """
        causes: list[dict[str, Any]] = []
        for scene, attribution in self.scenes.items():
            for tree in attribution.trees:
                if tree.path.startswith(_UNRANKED_PREFIX):
                    continue
                root_delta = tree.delta
                if root_delta == 0.0:
                    continue
                for leaf in tree.leaves():
                    if leaf.delta == 0.0:
                        continue
                    causes.append({
                        "scene": scene,
                        "tree": tree.path,
                        "path": leaf.path,
                        "kind": leaf.kind,
                        "baseline": leaf.baseline,
                        "current": leaf.current,
                        "delta": leaf.delta,
                        "share": leaf.delta / root_delta,
                        "unit": leaf.unit,
                        "note": leaf.note,
                    })
        causes.sort(key=lambda c: (-abs(c["share"]), c["scene"], c["path"]))
        return causes[:top_k]

    def explain(
        self, scene: str, metric: str, top_k: int = 5
    ) -> list[dict[str, Any]]:
        """Rank the leaf contributions under one gated metric path.

        ``metric`` is a gate-style path (``totals.gpu_cycles``,
        ``energy.rbcd.total_j``, ``stages.raster.wall_ms``, ...); the
        node is looked up across the scene's trees and its leaves are
        ranked by share of its delta.  Empty when the scene or node is
        unknown or the node didn't move.
        """
        attribution = self.scenes.get(scene)
        if attribution is None:
            return []
        node = attribution.find(metric)
        if node is None or node.delta == 0.0:
            return []
        causes = [
            {
                "scene": scene,
                "tree": metric,
                "path": leaf.path,
                "kind": leaf.kind,
                "baseline": leaf.baseline,
                "current": leaf.current,
                "delta": leaf.delta,
                "share": leaf.delta / node.delta,
                "unit": leaf.unit,
                "note": leaf.note,
            }
            for leaf in node.leaves()
            if leaf.delta != 0.0 and leaf is not node
        ]
        causes.sort(key=lambda c: (-abs(c["share"]), c["path"]))
        return causes[:top_k]

    # -- renderers ----------------------------------------------------

    def render_text(self, top_k: int = 10, all_trees: bool = False) -> str:
        lines: list[str] = []
        for err in self.errors:
            lines.append(f"ERROR  {err}")
        for check in self.checks:
            lines.append(f"CHECK-FAIL  {check}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")

        causes = self.ranked_causes(top_k)
        if causes:
            lines.append(f"top {len(causes)} attributed causes:")
            for rank, cause in enumerate(causes, start=1):
                note = f" — {cause['note']}" if cause["note"] else ""
                lines.append(
                    f"  {rank}. [{cause['scene']}] {cause['path']}: "
                    f"{cause['baseline']:.6g} -> {cause['current']:.6g} "
                    f"({cause['delta']:+.6g}, {cause['share']:+.1%} of "
                    f"{cause['tree']}){note}"
                )
        elif not self.errors:
            lines.append("all metric deltas are zero: the documents agree")

        for scene, attribution in self.scenes.items():
            moved = [
                t for t in attribution.trees
                if all_trees or t.delta != 0.0
            ]
            unchanged = len(attribution.trees) - len(moved)
            if not moved and attribution.spatial is None:
                continue
            lines.append(f"scene {scene}:")
            for tree in moved:
                for depth, node in tree.walk():
                    indent = "  " * (depth + 1)
                    lines.append(
                        f"{indent}{node.path}: {node.baseline:.6g} -> "
                        f"{node.current:.6g} ({node.delta:+.6g})"
                        + (f" — {node.note}" if node.note else "")
                    )
                    if node.children:
                        lines.append(
                            f"{indent}  residual: {node.residual:+.6g}"
                            + (" (exact)" if node.kind == "exact" else "")
                        )
            if unchanged:
                lines.append(
                    f"  ({unchanged} tree{'s' if unchanged != 1 else ''} "
                    f"unchanged)"
                )
            if attribution.spatial is not None:
                for name in ("cycles", "energy_j", "activity"):
                    if name in attribution.spatial.grids:
                        lines.append(
                            f"  tile_profile {attribution.spatial.summary(name)}"
                        )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "rbcd-attribution",
            "version": 1,
            "ok": self.ok,
            "all_zero": self.all_zero,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "checks_failed": list(self.checks),
            "ranked_causes": self.ranked_causes(),
            "scenes": {
                scene: attribution.as_dict()
                for scene, attribution in self.scenes.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Flat rows: scene,tree,path,depth,kind,baseline,current,delta,
        residual (header included)."""
        rows = ["scene,tree,path,depth,kind,baseline,current,delta,residual"]
        for scene, attribution in self.scenes.items():
            for tree in attribution.trees:
                for depth, node in tree.walk():
                    rows.append(
                        f"{scene},{tree.path},{node.path},{depth},"
                        f"{node.kind},{node.baseline!r},{node.current!r},"
                        f"{node.delta!r},{node.residual!r}"
                    )
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Intra-document cross-checks against the counter algebra
# ---------------------------------------------------------------------------


def _check_identity(
    failures: list[str], label: str, scene: str, name: str,
    got: Any, want: Any,
) -> None:
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        failures.append(
            f"{label}/{scene}: {name}: operand missing or not a number"
        )
        return
    if not _close(float(got), float(want)):
        failures.append(
            f"{label}/{scene}: {name}: {got!r} != {want!r}"
        )


def cross_check_document(
    doc: Mapping[str, Any], label: str = "document"
) -> list[str]:
    """Verify a bench document's internal counter-algebra identities.

    Returns a list of failure strings (empty = consistent).  These are
    the same identities the delta trees decompose along, so a failure
    here means the document (or the model that wrote it) broke the
    algebra — attribution reports it loudly instead of decomposing
    along a lie.
    """
    failures: list[str] = []
    scenes = doc.get("scenes")
    if not isinstance(scenes, Mapping):
        return [f"{label}: no scenes block to cross-check"]
    for scene, entry in scenes.items():
        if not isinstance(entry, Mapping):
            failures.append(f"{label}/{scene}: scene entry is not an object")
            continue
        counters = entry.get("counters") or {}
        stages = entry.get("stages") or {}
        energy = entry.get("energy") or {}

        gpu_cycles = _dig(entry, "totals.gpu_cycles")
        _check_identity(
            failures, label, scene,
            "totals.gpu_cycles == counters[gpu.gpu_cycles]",
            gpu_cycles, counters.get("gpu.gpu_cycles"),
        )
        geometry = counters.get("gpu.geometry.geometry_cycles")
        raster = counters.get("gpu.raster.raster_pipeline_cycles")
        if isinstance(geometry, (int, float)) and isinstance(raster, (int, float)):
            _check_identity(
                failures, label, scene,
                "gpu_cycles == geometry_cycles + raster_pipeline_cycles",
                gpu_cycles, geometry + raster,
            )
        else:
            failures.append(
                f"{label}/{scene}: gpu.geometry/gpu.raster cycle "
                f"counters missing"
            )

        total_j = _dig(energy, "total_j")
        _check_identity(
            failures, label, scene,
            "energy.total_j == counters[energy.total_j]",
            total_j, counters.get("energy.total_j"),
        )
        gpu_j = _dig(energy, "gpu.total_j")
        rbcd_j = _dig(energy, "rbcd.total_j")
        if isinstance(gpu_j, (int, float)) and isinstance(rbcd_j, (int, float)):
            _check_identity(
                failures, label, scene,
                "energy.total_j == energy.gpu.total_j + energy.rbcd.total_j",
                total_j, gpu_j + rbcd_j,
            )
        for block, keys in (
            ("gpu", ("geometry_j", "raster_j", "fragment_j", "memory_j",
                     "static_j")),
            ("rbcd", ("insertion_j", "overlap_j", "output_j", "static_j")),
        ):
            parts = [_dig(energy, f"{block}.{k}") for k in keys]
            if all(isinstance(p, (int, float)) for p in parts):
                _check_identity(
                    failures, label, scene,
                    f"energy.{block}.total_j == sum(components)",
                    _dig(energy, f"{block}.total_j"), sum(parts),
                )

        tile = _dig(stages, "rbcd.tile.cycles")
        insert = _dig(stages, "rbcd.zeb-insert.cycles")
        overlap = _dig(stages, "rbcd.z-overlap.cycles")
        if all(isinstance(v, (int, float)) for v in (tile, insert, overlap)):
            _check_identity(
                failures, label, scene,
                "stages[rbcd.tile] == stages[rbcd.zeb-insert] "
                "+ stages[rbcd.z-overlap]",
                tile, insert + overlap,
            )

        profile = entry.get("tile_profile")
        if isinstance(profile, Mapping) and profile.get("enabled"):
            cycles_grid = profile.get("cycles")
            if isinstance(cycles_grid, list) and isinstance(
                tile, (int, float)
            ):
                _check_identity(
                    failures, label, scene,
                    "sum(tile_profile.cycles) == stages[rbcd.tile].cycles",
                    sum(cycles_grid), tile,
                )
            energy_grid = profile.get("energy_j")
            dynamic = [
                _dig(energy, f"rbcd.{k}")
                for k in ("insertion_j", "overlap_j", "output_j")
            ]
            if isinstance(energy_grid, list) and all(
                isinstance(v, (int, float)) for v in dynamic
            ):
                _check_identity(
                    failures, label, scene,
                    "sum(tile_profile.energy_j) == dynamic rbcd energy",
                    sum(energy_grid), sum(dynamic),
                )
    return failures


# ---------------------------------------------------------------------------
# Delta-tree construction
# ---------------------------------------------------------------------------


def _num(entry: Mapping[str, Any], path: str) -> float | None:
    value = _dig(entry, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _leaf(
    base: Mapping[str, Any], cur: Mapping[str, Any], path: str,
    kind: str = "exact", unit: str = "", note: str = "",
) -> DeltaNode | None:
    b = _num(base, path)
    c = _num(cur, path)
    if b is None and c is None:
        return None
    extra = ""
    if b is None:
        extra, b = "missing in baseline (as 0)", 0.0
    elif c is None:
        extra, c = "missing in current (as 0)", 0.0
    joined = "; ".join(p for p in (note, extra) if p)
    return DeltaNode(path=path, kind=kind, baseline=b, current=c,
                     unit=unit, note=joined)


def _cycles_tree(
    base: Mapping[str, Any], cur: Mapping[str, Any]
) -> DeltaNode | None:
    root = _leaf(base, cur, "totals.gpu_cycles", unit="cycles")
    if root is None:
        return None
    root.note = "geometry + raster pipeline (decoupled phases)"
    geometry = _leaf(
        base, cur, "counters.gpu.geometry.geometry_cycles", unit="cycles",
        kind="structural",
        note="max of pipelined stages below, not a sum",
    )
    if geometry is not None:
        for sub in ("geometry.shade", "geometry.assemble", "geometry.bin"):
            child = _leaf(base, cur, f"stages.{sub}.cycles",
                          kind="structural", unit="cycles")
            if child is not None:
                geometry.children.append(child)
        root.children.append(geometry)
    raster = _leaf(
        base, cur, "counters.gpu.raster.raster_pipeline_cycles",
        unit="cycles", kind="structural",
        note="busy + ZEB stall + overlap/fragment-bound residual",
    )
    if raster is not None:
        for path, note in (
            ("counters.gpu.raster.raster_cycles", "rasterizer busy"),
            ("counters.gpu.raster.raster_stall_cycles", "ZEB stall"),
        ):
            child = _leaf(base, cur, path, kind="structural",
                          unit="cycles", note=note)
            if child is not None:
                raster.children.append(child)
        root.children.append(raster)
    return root


def _rbcd_tree(
    base: Mapping[str, Any], cur: Mapping[str, Any]
) -> DeltaNode | None:
    root = _leaf(base, cur, "stages.rbcd.tile.cycles", unit="cycles")
    if root is None:
        return None
    root.note = "ZEB insertion + Z-Overlap Test"
    for path in ("stages.rbcd.zeb-insert.cycles",
                 "stages.rbcd.z-overlap.cycles"):
        child = _leaf(base, cur, path, unit="cycles")
        if child is not None:
            root.children.append(child)
    return root


def _energy_tree(
    base: Mapping[str, Any], cur: Mapping[str, Any]
) -> DeltaNode | None:
    root = _leaf(base, cur, "energy.total_j", unit="J")
    if root is None:
        return None
    root.note = "GPU + RBCD unit"
    for block, keys in (
        ("gpu", ("geometry_j", "raster_j", "fragment_j", "memory_j",
                 "static_j")),
        ("rbcd", ("insertion_j", "overlap_j", "output_j", "static_j")),
    ):
        node = _leaf(base, cur, f"energy.{block}.total_j", unit="J")
        if node is None:
            continue
        for key in keys:
            child = _leaf(base, cur, f"energy.{block}.{key}", unit="J")
            if child is not None:
                node.children.append(child)
        root.children.append(node)
    return root


def _wall_tree(
    base: Mapping[str, Any], cur: Mapping[str, Any],
    alpha: float, confidence: float,
) -> DeltaNode | None:
    def wall(entry: Mapping[str, Any], stage: str) -> tuple[float, list[float]] | None:
        samples = _dig(entry, f"stages.{stage}.wall_ms_runs")
        if isinstance(samples, list) and samples:
            values = [float(v) for v in samples]
            return float(median(values)), values
        value = _num(entry, f"stages.{stage}.wall_ms_median")
        if value is not None:
            return value, [value]
        return None

    frame_base = wall(base, "frame")
    frame_cur = wall(cur, "frame")
    if frame_base is None or frame_cur is None:
        return None
    root = DeltaNode(
        path="stages.frame.wall_ms", kind="wall",
        baseline=frame_base[0], current=frame_cur[0], unit="ms",
        note="host medians; residual is untraced time",
    )
    for stage in _TOP_STAGES:
        b = wall(base, stage)
        c = wall(cur, stage)
        if b is None or c is None:
            continue
        evidence = significance_of(
            b[1], c[1], alpha=alpha, confidence=confidence
        )
        verdict = "significant" if evidence.significant else "not significant"
        root.children.append(DeltaNode(
            path=f"stages.{stage}.wall_ms", kind="wall",
            baseline=b[0], current=c[0], unit="ms",
            note=f"{verdict}: {evidence.detail}",
        ))
    return root


def _counter_trees(
    base: Mapping[str, Any], cur: Mapping[str, Any]
) -> list[DeltaNode]:
    """One exact tree per top-level counter namespace.

    Internal nodes are *defined* as the sum of their children, so the
    decomposition is exact by construction; the node values mix units
    within a namespace, which is why these trees carry the
    ``counters:`` prefix and are excluded from cross-tree ranking —
    their leaves are the interesting part.
    """
    base_counters = base.get("counters")
    cur_counters = cur.get("counters")
    if not isinstance(base_counters, Mapping):
        base_counters = {}
    if not isinstance(cur_counters, Mapping):
        cur_counters = {}
    names = sorted(set(base_counters) | set(cur_counters))
    if not names:
        return []

    def build(prefix: str, members: list[str]) -> DeltaNode:
        # Group members by their next path segment under ``prefix``.
        groups: dict[str, list[str]] = {}
        for name in members:
            rest = name[len(prefix):].lstrip(".")
            head = rest.partition(".")[0]
            groups.setdefault(head, []).append(name)
        children: list[DeltaNode] = []
        for head in sorted(groups):
            sub = groups[head]
            sub_prefix = f"{prefix}.{head}" if prefix else head
            if len(sub) == 1 and sub[0] == sub_prefix:
                name = sub[0]
                b = base_counters.get(name, 0.0)
                c = cur_counters.get(name, 0.0)
                note = ""
                if name not in base_counters:
                    note = "missing in baseline (as 0)"
                elif name not in cur_counters:
                    note = "missing in current (as 0)"
                children.append(DeltaNode(
                    path=f"counters.{name}", kind="exact",
                    baseline=float(b), current=float(c), note=note,
                ))
            else:
                children.append(build(sub_prefix, sub))
        node = DeltaNode(
            path=f"counters:{prefix}", kind="exact",
            baseline=sum(c.baseline for c in children),
            current=sum(c.current for c in children),
            children=children,
            note="structural namespace sum (value := sum of children)",
        )
        return node

    trees = []
    top_groups: dict[str, list[str]] = {}
    for name in names:
        top_groups.setdefault(name.partition(".")[0], []).append(name)
    for top in sorted(top_groups):
        trees.append(build(top, top_groups[top]))
    return trees


def _spatial_delta(
    base: Mapping[str, Any], cur: Mapping[str, Any],
    scene: str, warnings: list[str],
) -> SpatialDelta | None:
    base_profile = base.get("tile_profile")
    cur_profile = cur.get("tile_profile")
    if not (isinstance(base_profile, Mapping) and base_profile.get("enabled")
            and isinstance(cur_profile, Mapping)
            and cur_profile.get("enabled")):
        return None
    dims = (base_profile.get("tiles_x"), base_profile.get("tiles_y"))
    if dims != (cur_profile.get("tiles_x"), cur_profile.get("tiles_y")):
        warnings.append(
            f"{scene}: tile_profile dimensions differ "
            f"({dims} vs ({cur_profile.get('tiles_x')}, "
            f"{cur_profile.get('tiles_y')})): spatial layer skipped"
        )
        return None
    grids: dict[str, list[float]] = {}
    for name in ("cycles", "energy_j", "activity", "lookups"):
        b = base_profile.get(name)
        c = cur_profile.get(name)
        if (isinstance(b, list) and isinstance(c, list)
                and len(b) == len(c)):
            grids[name] = [float(cv) - float(bv) for bv, cv in zip(b, c)]
    if not grids:
        return None
    return SpatialDelta(
        tiles_x=int(dims[0]), tiles_y=int(dims[1]), grids=grids
    )


def attribute_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    alpha: float = 0.05,
    confidence: float = 0.95,
) -> AttributionReport:
    """Diff ``current`` against ``baseline`` into ranked delta trees.

    Unlike the regression gate, a workload-config mismatch does *not*
    refuse the comparison — attributing across configurations (say,
    two frame counts) is precisely the point — but every differing key
    is surfaced as a warning so nobody mistakes the diff for noise.
    Structural problems (missing scenes, non-document inputs) land in
    ``errors``; intra-document algebra violations land in ``checks``.
    """
    report = AttributionReport()
    base_scenes = baseline.get("scenes") if isinstance(baseline, Mapping) else None
    cur_scenes = current.get("scenes") if isinstance(current, Mapping) else None
    if not isinstance(base_scenes, Mapping) or not isinstance(cur_scenes, Mapping):
        report.errors.append("both documents need a scenes block")
        return report

    base_config = baseline.get("config")
    cur_config = current.get("config")
    if isinstance(base_config, Mapping) and isinstance(cur_config, Mapping):
        for key, default in CONFIG_TABLE:
            b = base_config.get(key, default)
            c = cur_config.get(key, default)
            if b != c:
                report.warnings.append(
                    f"config.{key} differs (baseline {b!r}, current {c!r}): "
                    f"attributing across configurations"
                )
    else:
        report.warnings.append("config block missing from a document")

    report.checks.extend(cross_check_document(baseline, "baseline"))
    report.checks.extend(cross_check_document(current, "current"))

    for scene in sorted(set(base_scenes) | set(cur_scenes)):
        base_entry = base_scenes.get(scene)
        cur_entry = cur_scenes.get(scene)
        if not isinstance(base_entry, Mapping):
            report.errors.append(f"scene {scene!r} missing from baseline")
            continue
        if not isinstance(cur_entry, Mapping):
            report.errors.append(f"scene {scene!r} missing from current run")
            continue
        attribution = SceneAttribution(scene=scene)
        for tree in (
            _cycles_tree(base_entry, cur_entry),
            _energy_tree(base_entry, cur_entry),
            _rbcd_tree(base_entry, cur_entry),
            _wall_tree(base_entry, cur_entry, alpha, confidence),
            *_counter_trees(base_entry, cur_entry),
        ):
            if tree is not None:
                attribution.trees.append(tree)
        attribution.spatial = _spatial_delta(
            base_entry, cur_entry, scene, report.warnings
        )
        report.scenes[scene] = attribution
    return report
