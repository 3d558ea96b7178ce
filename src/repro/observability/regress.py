"""Baseline comparison and statistical regression gating.

The bench harness (``python -m repro.experiments.bench``) writes
multi-run documents carrying per-stage wall-time samples, deterministic
cycle/DRAM counters, and modelled energy.  This module compares two
such documents — a stored baseline against a fresh run — and decides
whether the fresh run *regressed*:

* **Wall-time metrics** (per-stage ``wall_ms_runs``) are host
  measurements and noisy, so a regression must be both large — the
  median ratio beyond :attr:`GatePolicy.wall_tol` — and statistically
  significant: disjoint bootstrap confidence intervals, or a
  Mann-Whitney p-value under :attr:`GatePolicy.alpha` (exact test at
  bench sample sizes; see :mod:`repro.observability.stats`).
* **Deterministic metrics** — simulated cycles, DRAM bytes, modelled
  joules and EDP — are pure functions of the code, so *any* increase
  beyond a relative epsilon is a regression.  No statistics needed:
  if ``gpu.rbcd.rbcd_cycles`` moved, the model changed.

Comparing documents from different workload configs (resolution,
frames, detail) is refused outright: the numbers are not commensurable.

The gate is symmetric about improvements: significantly *better*
numbers never fail the build, but they are reported so the baseline
can be refreshed (a stale fast baseline is how regressions hide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.observability.stats import significance_of, summarize

__all__ = [
    "GatePolicy",
    "MetricComparison",
    "GateReport",
    "compare_documents",
    "DETERMINISTIC_SCENE_METRICS",
    "CONFIG_TABLE",
]

# Scene-level deterministic metrics gated when present in the baseline:
# dotted paths into the scene entry (baseline-missing metrics are
# skipped).
DETERMINISTIC_SCENE_METRICS = (
    "totals.gpu_cycles",
    "counters.gpu.mem.dram_bytes_read",
    "counters.gpu.mem.dram_bytes_written",
    "energy.gpu.total_j",
    "energy.rbcd.total_j",
    "energy.total_j",
    "energy.edp_js",
)

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
    ("kernel_backend", None),
    ("broad_phase", None),
    ("tile_profile", None),
)


@dataclass(frozen=True, slots=True)
class GatePolicy:
    """Thresholds of the regression gate.

    ``wall_tol`` is deliberately loose (25 %): host wall time on shared
    CI runners jitters, and the significance requirement already
    filters noise — the tolerance exists so a *significant but tiny*
    slowdown (0.1 ms on a hot cache) cannot fail a build.
    ``metric_tol`` is a pure float-noise guard for metrics that are
    deterministic by construction.
    """

    wall_tol: float = 0.25
    metric_tol: float = 1e-9
    alpha: float = 0.05
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.wall_tol < 0.0:
            raise ValueError("wall_tol must be >= 0")
        if self.metric_tol < 0.0:
            raise ValueError("metric_tol must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True, slots=True)
class MetricComparison:
    """One gated metric of one scene."""

    scene: str
    metric: str
    kind: str             # "wall" | "deterministic"
    baseline: float       # median (wall) or exact value (deterministic)
    current: float
    regressed: bool
    improved: bool
    detail: str = ""

    @property
    def ratio(self) -> float:
        if self.baseline == 0.0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline


@dataclass
class GateReport:
    """Outcome of one baseline comparison."""

    comparisons: list[MetricComparison] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def improvements(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.improved]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.regressions

    def failure_line(self) -> str:
        """One machine-greppable line naming the first failure.

        ``GATE-FAIL scene=<s> metric=<path> kind=<k> baseline=<b>
        current=<c> ratio=<r>`` for the first regressed comparison, or
        ``GATE-FAIL error="<first error>"`` when the gate failed
        structurally before comparing.  Empty string when the gate
        passed.  The fixed ``GATE-FAIL`` prefix is the contract: CI
        log scrapers grep for it and get the offending metric path and
        both values without parsing the full report.
        """
        if self.regressions:
            first = self.regressions[0]
            return (
                f"GATE-FAIL scene={first.scene} metric={first.metric} "
                f"kind={first.kind} baseline={first.baseline:.6g} "
                f"current={first.current:.6g} ratio={first.ratio:.6g}"
            )
        if self.errors:
            return f'GATE-FAIL error="{self.errors[0]}"'
        return ""

    def render(self) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        lines: list[str] = []
        for err in self.errors:
            lines.append(f"ERROR  {err}")
        for comp in self.comparisons:
            if comp.regressed:
                tag = "REGRESSION"
            elif comp.improved:
                tag = "improved"
            else:
                continue
            lines.append(
                f"{tag:<10} {comp.scene}/{comp.metric}: "
                f"{comp.baseline:.6g} -> {comp.current:.6g} "
                f"(x{comp.ratio:.3f}){' — ' + comp.detail if comp.detail else ''}"
            )
        checked = len(self.comparisons)
        lines.append(
            f"gate: {checked} metrics checked, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved"
            + (f", {len(self.errors)} errors" if self.errors else "")
        )
        if self.improvements and not self.regressions:
            lines.append(
                "note: improvements detected — consider refreshing the "
                "baseline so they become the new floor"
            )
        return "\n".join(lines)


def _dig(mapping: Any, dotted: str):
    """Resolve a dotted path, longest-prefix-wise, through nested dicts.

    Counter names themselves contain dots (``gpu.mem.dram_bytes_read``),
    so after descending into plain keys the remaining path is tried as
    one literal key at each level.
    """
    if not isinstance(mapping, Mapping):
        return None
    if dotted in mapping:
        return mapping[dotted]
    head, _, rest = dotted.partition(".")
    if not rest:
        return None
    return _dig(mapping.get(head), rest)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_wall(
    scene: str,
    stage: str,
    base_samples: list[float],
    cur_samples: list[float],
    policy: GatePolicy,
) -> MetricComparison:
    base = summarize(base_samples)
    cur = summarize(cur_samples)
    ratio = cur.median / base.median if base.median else float("inf")

    big_regression = ratio > 1.0 + policy.wall_tol
    big_improvement = ratio < 1.0 - policy.wall_tol
    significant = False
    detail = ""
    if big_regression or big_improvement:
        evidence = significance_of(
            base_samples, cur_samples,
            alpha=policy.alpha, confidence=policy.confidence,
        )
        significant = evidence.significant
        detail = evidence.detail
    return MetricComparison(
        scene=scene,
        metric=f"stages.{stage}.wall_ms",
        kind="wall",
        baseline=base.median,
        current=cur.median,
        regressed=big_regression and significant,
        improved=big_improvement and significant,
        detail=detail,
    )


def _compare_deterministic(
    scene: str,
    metric: str,
    base_value: float,
    cur_value: float,
    policy: GatePolicy,
) -> MetricComparison:
    tol = policy.metric_tol
    if base_value == 0.0:
        regressed = cur_value > tol
        improved = False
    else:
        regressed = cur_value > base_value * (1.0 + tol)
        improved = cur_value < base_value * (1.0 - tol)
    return MetricComparison(
        scene=scene,
        metric=metric,
        kind="deterministic",
        baseline=float(base_value),
        current=float(cur_value),
        regressed=regressed,
        improved=improved,
        detail="deterministic (model output, not noise)" if regressed else "",
    )


def compare_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    policy: GatePolicy | None = None,
) -> GateReport:
    """Gate ``current`` against ``baseline`` (both rbcd-bench v2 docs).

    Structural problems (config mismatch, missing scenes or fields)
    land in :attr:`GateReport.errors` and fail the gate — a comparison
    that silently skips what it cannot find would wave regressions
    through.
    """
    policy = policy if policy is not None else GatePolicy()
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

    for scene, base_entry in base_scenes.items():
        cur_entry = cur_scenes.get(scene)
        if not isinstance(cur_entry, Mapping):
            report.errors.append(f"scene {scene!r} missing from current run")
            continue

        base_stages = base_entry.get("stages") or {}
        cur_stages = cur_entry.get("stages") or {}
        for stage, base_record in base_stages.items():
            cur_record = cur_stages.get(stage)
            if not isinstance(cur_record, Mapping):
                report.errors.append(
                    f"{scene}: stage {stage!r} missing from current run"
                )
                continue
            base_samples = base_record.get("wall_ms_runs")
            cur_samples = cur_record.get("wall_ms_runs")
            if (
                isinstance(base_samples, list) and base_samples
                and isinstance(cur_samples, list) and cur_samples
            ):
                report.comparisons.append(
                    _compare_wall(scene, stage, base_samples, cur_samples, policy)
                )
            else:
                report.errors.append(
                    f"{scene}: stage {stage!r} has no wall_ms_runs samples "
                    f"(baseline predates schema v2?)"
                )
            base_cycles = base_record.get("cycles")
            cur_cycles = cur_record.get("cycles")
            if _is_number(base_cycles) and _is_number(cur_cycles):
                report.comparisons.append(
                    _compare_deterministic(
                        scene, f"stages.{stage}.cycles",
                        base_cycles, cur_cycles, policy,
                    )
                )

        for metric in DETERMINISTIC_SCENE_METRICS:
            base_value = _dig(base_entry, metric)
            cur_value = _dig(cur_entry, metric)
            if base_value is None:
                continue  # baseline predates the metric: nothing to hold
            if not _is_number(base_value):
                report.errors.append(
                    f"{scene}: baseline {metric} is not a number"
                )
                continue
            if not _is_number(cur_value):
                report.errors.append(
                    f"{scene}: {metric} missing from current run"
                )
                continue
            report.comparisons.append(
                _compare_deterministic(scene, metric, base_value, cur_value, policy)
            )

    return report
