"""Baseline comparison: the exact two-way gate over bench documents.

The bench harness (``python -m repro.experiments.bench``) writes
documents whose every number is a model output — span counts and
simulated cycles, counters, modelled joules, the Figure-5 case
histogram, agreement with the exact oracle, and the per-tile grids.
None of it is a host measurement, so none of it is noise: this module
compares a fresh document against a stored baseline at **every numeric
leaf of every scene**, and any change in either direction fails.  A
drop in cycles is as much a model change as a rise, and a drop in
``colliding_pairs`` is the unit losing collisions.  A change that is
meant must be declared and the baseline regenerated.

Integers must be equal; floats must agree within :data:`REL_TOL` (a
float-summation guard, not a tolerance for behaviour), as
:func:`within_tol` decides; the bench validator checks the model's
identities inside each document with the same guard.  Comparing
documents from different workload configs (resolution, frames, detail,
...) is refused outright: the numbers are not commensurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "REL_TOL",
    "within_tol",
    "MetricComparison",
    "GateReport",
    "compare_documents",
    "CONFIG_TABLE",
]

# Relative guard for float leaves: sums taken in a different order may
# differ in the last bits, nothing else may.
REL_TOL = 1e-9

# Workload-config keys that must match for two documents to be
# comparable at all, each with the default assumed when the key is
# absent.  Every key is required by the current schema, so every
# default is None: absence is a mismatch in its own right.
CONFIG_TABLE = (
    ("width", None),
    ("height", None),
    ("frames", None),
    ("detail", None),
    ("quick", None),
    ("tile_profile", None),
)


@dataclass(frozen=True, slots=True)
class MetricComparison:
    """One scene value that differs between baseline and current."""

    scene: str
    metric: str           # dotted path into the scene entry
    baseline: Any
    current: Any

    @property
    def ratio(self) -> float:
        if not (_is_number(self.baseline) and _is_number(self.current)):
            return float("nan")
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline


@dataclass
class GateReport:
    """Outcome of one baseline comparison."""

    checked: int = 0
    mismatches: list[MetricComparison] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.mismatches

    def failure_line(self) -> str:
        """One machine-greppable line naming the first failure.

        ``GATE-FAIL scene=<s> metric=<path> baseline=<b> current=<c>
        ratio=<r>`` for the first mismatch, or ``GATE-FAIL
        error="<first error>"`` when the gate failed structurally (a
        multi-line error is folded onto the line).  Empty string when
        the gate passed.  The fixed ``GATE-FAIL``
        prefix is the contract: CI log scrapers grep for it and get the
        offending metric path and both values without parsing the full
        report.
        """
        if self.mismatches:
            first = self.mismatches[0]
            return (
                f"GATE-FAIL scene={first.scene} metric={first.metric} "
                f"baseline={first.baseline!r} current={first.current!r} "
                f"ratio={first.ratio:.6g}"
            )
        if self.errors:
            return f'GATE-FAIL error="{" ".join(self.errors[0].split())}"'
        return ""

    def render(self) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        lines = [f"ERROR  {err}" for err in self.errors]
        lines.extend(
            f"CHANGED    {comp.scene}/{comp.metric}: "
            f"{comp.baseline!r} -> {comp.current!r}"
            for comp in self.mismatches
        )
        lines.append(
            f"gate: {self.checked} values checked, "
            f"{len(self.mismatches)} changed"
            + (f", {len(self.errors)} errors" if self.errors else "")
        )
        return "\n".join(lines)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(value: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """Every leaf under ``value`` as ``(dotted path, value)``; list
    items are addressed as ``name[i]``."""
    if isinstance(value, Mapping):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def within_tol(a: float, b: float) -> bool:
    """``a`` and ``b`` agree within :data:`REL_TOL` of the larger."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _equal(base: Any, cur: Any) -> bool:
    if not (_is_number(base) and _is_number(cur)):
        return base == cur
    if isinstance(base, int) and isinstance(cur, int):
        return base == cur
    return within_tol(base, cur)


def compare_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
) -> GateReport:
    """Gate ``current`` against ``baseline`` (both rbcd-bench docs).

    Every leaf of every baseline scene must be present in the current
    scene with an equal value, and the current scenes may hold nothing
    the baseline lacks.  Structural problems (config mismatch, missing
    or extra scenes and fields) land in :attr:`GateReport.errors`;
    changed values in :attr:`GateReport.mismatches`.
    """
    report = GateReport()

    base_config = baseline.get("config")
    cur_config = current.get("config")
    if not isinstance(base_config, Mapping) or not isinstance(cur_config, Mapping):
        report.errors.append("both documents need a config block")
        return report
    base_scenes = baseline.get("scenes")
    cur_scenes = current.get("scenes")
    if not isinstance(base_scenes, Mapping) or not isinstance(cur_scenes, Mapping):
        report.errors.append("both documents need a scenes block")
        return report
    for key, default in CONFIG_TABLE:
        base_value = base_config.get(key, default)
        cur_value = cur_config.get(key, default)
        if base_value != cur_value:
            report.errors.append(
                f"config.{key} differs (baseline {base_value!r}, "
                f"current {cur_value!r}): documents are not "
                f"comparable"
            )
    if report.errors:
        return report

    for scene in sorted(set(cur_scenes) - set(base_scenes)):
        report.errors.append(f"scene {scene!r} is not in the baseline")
    for scene, base_entry in base_scenes.items():
        cur_entry = cur_scenes.get(scene)
        if not isinstance(cur_entry, Mapping):
            report.errors.append(f"scene {scene!r} missing from current run")
            continue
        cur_leaves = dict(_leaves(cur_entry))
        for metric, base_value in _leaves(base_entry):
            if metric not in cur_leaves:
                report.errors.append(
                    f"{scene}: {metric} missing from current run"
                )
                continue
            cur_value = cur_leaves.pop(metric)
            report.checked += 1
            if not _equal(base_value, cur_value):
                report.mismatches.append(MetricComparison(
                    scene=scene, metric=metric,
                    baseline=base_value, current=cur_value,
                ))
        for metric in cur_leaves:
            report.errors.append(f"{scene}: {metric} is not in the baseline")
    return report
