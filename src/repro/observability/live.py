"""Live telemetry: streaming per-frame metrics, health, and watchdogs.

Everything observability built so far is post-hoc — traces, bench
documents, provenance logs are read after the run ends.  This module
closes the loop for long-running frame streams: every rendered frame
becomes a :class:`MetricSnapshot`, sliding windows and a deterministic
quantile sketch turn the snapshot stream into live rates
(``rbcd.activity_ratio`` against the paper's ~1 % frame-time envelope,
ZEB/FF-Stack overflow rates against Table 3, joules/frame against an
energy budget, p50/p95/p99 frame latency), and a declarative
:class:`WatchdogRule` engine raises structured :class:`Alert` records
the moment the stream drifts out of its envelope.

The state is read in process: :attr:`LiveMonitor.healthy`,
:attr:`LiveMonitor.alerts`, :meth:`LiveMonitor.window_values` and
:meth:`LiveMonitor.totals_registry`, plus listeners and structured
log events through :mod:`repro.observability.log`.  ``python -m
repro.experiments.monitor`` drives one over a benchmark scene, and
the flight recorder keeps its recent snapshots for post-mortems.

Determinism contract (the observer contract, asserted by
``tests/integration/test_observer_differential.py``): monitoring is
strictly observational.  Attaching a monitor changes no collision
pair, counter, or simulated cycle; every deterministic snapshot field
is a pure function of the frame stream, so repeat runs produce
bit-identical snapshots (wall-clock fields excluded — they measure the
host, not the model).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.observability.counters import CounterRegistry
from repro.observability.log import get_logger, log_event
from repro.observability.observer import FrameObserver
from repro.observability.window import Ewma, QuantileSketch, SlidingWindow

__all__ = [
    "MetricSnapshot",
    "WatchdogRule",
    "Alert",
    "LiveMonitor",
    "default_rules",
    "aggregate_window_values",
    "PAPER_ACTIVITY_ENVELOPE",
    "WINDOW_SERIES",
]

_LOG = get_logger(__name__)

# The paper's headline envelope (Figure 9/11): RBCD activity stays
# below ~1 % of frame time.  The default watchdog guards this bound.
PAPER_ACTIVITY_ENVELOPE = 0.01

_QUANTILES = (0.5, 0.95, 0.99)

# The per-frame series every monitor pushes into its sliding windows.
# The flight recorder's post-mortem replay rebuilds the same windows
# from recorded snapshots, so the set is part of the public contract.
WINDOW_SERIES = (
    "rbcd_cycles", "gpu_cycles", "zeb_overflow_events",
    "zeb_insertions", "ff_stack_overflows", "zeb_lists_analyzed",
    "energy_j", "wall_ms", "sim_ms", "pairs",
)


def new_series(
    window: int, sketch_accuracy: float, ewma_alpha: float
) -> tuple[dict[str, SlidingWindow], dict[str, Ewma], dict[str, QuantileSketch]]:
    """The per-frame series state a monitor aggregates: one sliding
    window per :data:`WINDOW_SERIES` name, the EWMAs and the quantile
    sketches.  :class:`LiveMonitor` and the flight recorder's
    post-mortem replay both build it here, so they hold the same series.
    """
    return (
        {name: SlidingWindow(window) for name in WINDOW_SERIES},
        {
            "frame.wall_ms": Ewma(ewma_alpha),
            "rbcd.activity_ratio": Ewma(ewma_alpha),
        },
        {
            "frame.wall_ms": QuantileSketch(sketch_accuracy),
            "frame.sim_ms": QuantileSketch(sketch_accuracy),
            "rbcd.activity_ratio": QuantileSketch(sketch_accuracy),
        },
    )


def push_series(
    windows: Mapping[str, SlidingWindow],
    ewmas: Mapping[str, Ewma],
    sketches: Mapping[str, QuantileSketch],
    values: Mapping[str, float],
    activity: float,
) -> None:
    """Push one frame into :func:`new_series` state: ``values`` holds
    every :data:`WINDOW_SERIES` name, ``activity`` the frame's
    ``rbcd.activity_ratio``."""
    for name in WINDOW_SERIES:
        windows[name].push(values[name])
    ewmas["frame.wall_ms"].update(values["wall_ms"])
    ewmas["rbcd.activity_ratio"].update(activity)
    sketches["frame.wall_ms"].add(values["wall_ms"])
    sketches["frame.sim_ms"].add(values["sim_ms"])
    sketches["rbcd.activity_ratio"].add(activity)


_OPS = {
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class MetricSnapshot:
    """One rendered frame, flattened into comparable numbers.

    ``counters`` holds every registry namespace the frame produced
    (``gpu.*`` from :class:`~repro.gpu.stats.GPUStats` plus ``energy.*``
    from :class:`~repro.energy.report.FrameEnergyReport`); ``derived``
    holds the per-frame ratios the watchdogs consume.  All of those are
    deterministic — bit-identical run to run, monitoring on or off.
    ``wall_s`` is host time and excluded from the
    :meth:`deterministic_fingerprint`.
    """

    frame: int
    gpu_cycles: float
    sim_s: float                     # modelled frame latency (seconds)
    wall_s: float                    # host render latency (seconds)
    counters: dict[str, int | float]
    derived: dict[str, float]

    def deterministic_fingerprint(self) -> dict[str, Any]:
        """Everything the determinism contract covers (no wall clock)."""
        return {
            "frame": self.frame,
            "gpu_cycles": self.gpu_cycles,
            "sim_s": self.sim_s,
            "counters": dict(self.counters),
            "derived": dict(self.derived),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "frame": self.frame,
            "gpu_cycles": self.gpu_cycles,
            "sim_s": self.sim_s,
            "wall_s": self.wall_s,
            "counters": dict(self.counters),
            "derived": dict(self.derived),
        }


@dataclass(frozen=True)
class WatchdogRule:
    """Declarative threshold over a window aggregate.

    ``metric`` names a key of :meth:`LiveMonitor.window_values`;
    the rule trips when ``op(value, threshold)`` holds and at least
    ``min_frames`` frames are in the window (so a one-frame burst
    cannot page anyone before the window is warm).
    """

    name: str
    metric: str
    op: str
    threshold: float
    min_frames: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: op must be one of {sorted(_OPS)}"
            )
        if self.min_frames < 1:
            raise ValueError(f"rule {self.name!r}: min_frames must be >= 1")

    def breached(self, values: Mapping[str, float], frames: int) -> bool:
        if frames < self.min_frames or self.metric not in values:
            return False
        return _OPS[self.op](values[self.metric], self.threshold)


@dataclass(frozen=True)
class Alert:
    """One watchdog firing (edge-triggered: raised on breach entry)."""

    rule: str
    metric: str
    value: float
    threshold: float
    op: str
    frame: int

    @property
    def message(self) -> str:
        return (
            f"watchdog {self.rule!r}: {self.metric} = {self.value:.6g} "
            f"{self.op} {self.threshold:.6g} at frame {self.frame}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "op": self.op,
            "frame": self.frame,
            "message": self.message,
        }


def default_rules(
    max_activity_ratio: float | None = PAPER_ACTIVITY_ENVELOPE,
    max_overflow_rate: float | None = 0.05,
    max_ffstack_overflow_rate: float | None = 0.05,
    max_joules_per_frame: float | None = 0.01,
    max_frame_ms: float | None = None,
    min_frames: int = 1,
) -> list[WatchdogRule]:
    """The stock rule set guarding the paper's operating envelope.

    Pass ``None`` for any bound to drop that rule (``max_frame_ms``
    defaults to off: host wall time is machine-dependent, so the
    latency SLO is opt-in).
    """
    rules: list[WatchdogRule] = []
    if max_activity_ratio is not None:
        rules.append(WatchdogRule(
            "rbcd-activity-envelope", "window.rbcd.activity_ratio",
            "gt", max_activity_ratio, min_frames=min_frames,
            description="RBCD cycles vs GPU cycles over the window "
                        "(paper envelope: ~1% of frame time)",
        ))
    if max_overflow_rate is not None:
        rules.append(WatchdogRule(
            "zeb-overflow-rate", "window.zeb.overflow_rate",
            "gt", max_overflow_rate, min_frames=min_frames,
            description="ZEB insertion overflows per attempt over the window",
        ))
    if max_ffstack_overflow_rate is not None:
        rules.append(WatchdogRule(
            "ffstack-overflow-rate", "window.ffstack.overflow_rate",
            "gt", max_ffstack_overflow_rate, min_frames=min_frames,
            description="FF-Stack overflows per analyzed list over the window",
        ))
    if max_joules_per_frame is not None:
        rules.append(WatchdogRule(
            "energy-budget", "window.energy.joules_per_frame",
            "gt", max_joules_per_frame, min_frames=min_frames,
            description="modelled joules per frame over the window",
        ))
    if max_frame_ms is not None:
        rules.append(WatchdogRule(
            "frame-latency-slo", "quantile.frame.wall_ms.p95",
            "gt", max_frame_ms, min_frames=min_frames,
            description="host render latency p95 (milliseconds)",
        ))
    return rules


def aggregate_window_values(
    windows: Mapping[str, SlidingWindow],
    ewmas: Mapping[str, Ewma],
    sketches: Mapping[str, QuantileSketch],
) -> dict[str, float]:
    """Window aggregates, EWMAs and quantiles from raw series state.

    This is *the* aggregation: :meth:`LiveMonitor.window_values` calls
    it on the live windows, and the flight recorder's post-mortem
    replay calls it on windows rebuilt from recorded snapshots — the
    shared implementation is what makes an alert's window stats exactly
    reproducible from a dump (same ``SlidingWindow.sum`` left-to-right
    summation, same sketch bucketing), not merely approximately.
    """
    w = windows

    def ratio(num: str, den: str) -> float:
        total = w[den].sum()
        return w[num].sum() / total if total > 0.0 else 0.0

    frames = len(w["gpu_cycles"])
    values = {
        "window.frames": float(frames),
        "window.rbcd.activity_ratio": ratio("rbcd_cycles", "gpu_cycles"),
        "window.zeb.overflow_rate":
            ratio("zeb_overflow_events", "zeb_insertions"),
        "window.ffstack.overflow_rate":
            ratio("ff_stack_overflows", "zeb_lists_analyzed"),
        "window.energy.joules_per_frame": w["energy_j"].mean(),
        "window.frame.wall_ms.mean": w["wall_ms"].mean(),
        "window.frame.wall_ms.max": w["wall_ms"].max(),
        "window.frame.sim_ms.mean": w["sim_ms"].mean(),
        "window.pairs.per_frame": w["pairs"].mean(),
        "ewma.frame.wall_ms": ewmas["frame.wall_ms"].value,
        "ewma.rbcd.activity_ratio": ewmas["rbcd.activity_ratio"].value,
    }
    for series, sketch in sketches.items():
        for q in _QUANTILES:
            quantile = sketch.quantile(q)
            if quantile is not None:
                key = f"quantile.{series}.p{int(q * 100)}"
                values[key] = quantile
    return values


class LiveMonitor(FrameObserver):
    """Streaming telemetry over a sequence of rendered frames.

    A :class:`~repro.observability.observer.FrameObserver`: attached in
    ``observers=``, every finished frame is fed to :meth:`observe`.
    Frames can also be fed by hand with :meth:`observe` (a
    :class:`~repro.gpu.pipeline.FrameResult`) or :meth:`observe_frame`
    (raw stats + energy).  Read back at any time — all public readers
    and the writer are serialized by one lock, so another thread can
    read mid-stream.
    """

    def __init__(
        self,
        window: int = 120,
        rules: Iterable[WatchdogRule] | None = None,
        sketch_accuracy: float = 0.01,
        ewma_alpha: float = 0.2,
        logger: logging.Logger | None = None,
    ) -> None:
        self.rules: list[WatchdogRule] = (
            list(rules) if rules is not None else default_rules()
        )
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate watchdog rule names in {names}")
        self.window_size = window
        self.sketch_accuracy = sketch_accuracy
        self.ewma_alpha = ewma_alpha
        self._log = logger if logger is not None else _LOG
        self._lock = threading.Lock()
        self._listeners: list = []
        self.frames = 0
        self.alerts: list[Alert] = []
        self._active_rules: set[str] = set()
        self._latest: MetricSnapshot | None = None
        # Cumulative totals (deterministic).
        self._total_counters: dict[str, int | float] = {}
        self._counter_specs: dict = {}
        # Per-frame series windows (raw numerators/denominators, so
        # windowed rates are ratios of window sums).
        self._windows, self._ewma, self._sketches = new_series(
            window, sketch_accuracy, ewma_alpha
        )

    def add_listener(self, fn) -> None:
        """Call ``fn(kind, payload)`` after each ingested frame:
        ``("snapshot", MetricSnapshot)`` for every frame, then
        ``("alert", Alert)`` / ``("recovery", dict)`` for watchdog
        transitions, in occurrence order.  Listeners run *outside* the
        monitor lock (so they may call readers like :meth:`totals`)
        and must be strictly observational.
        """
        self._listeners.append(fn)

    def _notify(self, events: list) -> None:
        for fn in self._listeners:
            for kind, payload in events:
                fn(kind, payload)

    # -- ingestion -----------------------------------------------------------

    def end_frame(self, result, wall_s: float) -> None:
        self.observe(result, wall_s=wall_s)

    def observe(self, result, wall_s: float = 0.0) -> MetricSnapshot:
        """Ingest one :class:`~repro.gpu.pipeline.FrameResult`."""
        energy = result.energy
        if energy is None:  # pragma: no cover - every GPU frame prices energy
            from repro.energy.report import FrameEnergyReport

            energy = FrameEnergyReport()
        return self.observe_frame(result.stats, energy, wall_s=wall_s)

    def observe_frame(self, stats, energy, wall_s: float = 0.0) -> MetricSnapshot:
        """Ingest one frame's stats + energy report; returns its snapshot.

        Strictly observational: ``stats`` and ``energy`` are read, never
        mutated, and everything derived from them is deterministic.
        """
        registry = stats.registry() + energy.registry()
        counters = registry.as_dict()
        gpu_cycles = float(stats.gpu_cycles)
        rbcd_cycles = float(stats.rbcd_cycles)
        insertions = int(stats.zeb_insertions)
        overflows = int(stats.zeb_overflow_events)
        stack_overflows = int(stats.ff_stack_overflows)
        lists_analyzed = int(stats.zeb_lists_analyzed)
        energy_j = float(energy.total_j)
        sim_s = float(energy.delay_s)
        wall_s = float(wall_s)
        derived = {
            "rbcd.activity_ratio":
                rbcd_cycles / gpu_cycles if gpu_cycles > 0.0 else 0.0,
            "zeb.overflow_rate":
                overflows / insertions if insertions else 0.0,
            "ffstack.overflow_rate":
                stack_overflows / lists_analyzed if lists_analyzed else 0.0,
            "energy.joules": energy_j,
            "frame.sim_ms": sim_s * 1e3,
        }
        with self._lock:
            snapshot = MetricSnapshot(
                frame=self.frames,
                gpu_cycles=gpu_cycles,
                sim_s=sim_s,
                wall_s=wall_s,
                counters=counters,
                derived=derived,
            )
            self.frames += 1
            self._latest = snapshot
            for name, spec in ((s.name, s) for s in registry.specs()):
                self._counter_specs.setdefault(name, spec)
                self._total_counters[name] = (
                    self._total_counters.get(name, 0) + counters[name]
                )
            push = {
                "rbcd_cycles": rbcd_cycles,
                "gpu_cycles": gpu_cycles,
                "zeb_overflow_events": float(overflows),
                "zeb_insertions": float(insertions),
                "ff_stack_overflows": float(stack_overflows),
                "zeb_lists_analyzed": float(lists_analyzed),
                "energy_j": energy_j,
                "wall_ms": wall_s * 1e3,
                "sim_ms": sim_s * 1e3,
                "pairs": float(stats.collision_pairs_emitted),
            }
            push_series(
                self._windows, self._ewma, self._sketches, push,
                derived["rbcd.activity_ratio"],
            )
            events = [("snapshot", snapshot)]
            events.extend(self._evaluate_rules(snapshot.frame))
        self._notify(events)
        return snapshot

    # -- watchdogs -----------------------------------------------------------

    def _evaluate_rules(self, frame: int) -> list:
        """Edge-triggered rule evaluation (caller holds the lock).

        Returns the transition events for listener dispatch after the
        lock is released.
        """
        values = self._window_values_locked()
        frames_in_window = len(self._windows["gpu_cycles"])
        events: list = []
        for rule in self.rules:
            breached = rule.breached(values, frames_in_window)
            if breached and rule.name not in self._active_rules:
                self._active_rules.add(rule.name)
                alert = Alert(
                    rule=rule.name,
                    metric=rule.metric,
                    value=float(values[rule.metric]),
                    threshold=rule.threshold,
                    op=rule.op,
                    frame=frame,
                )
                self.alerts.append(alert)
                events.append(("alert", alert))
                log_event(
                    self._log, "watchdog.alert", level=logging.WARNING,
                    **alert.as_dict(),
                )
            elif not breached and rule.name in self._active_rules:
                self._active_rules.discard(rule.name)
                events.append(("recovery", {
                    "rule": rule.name, "metric": rule.metric, "frame": frame,
                }))
                log_event(
                    self._log, "watchdog.recovered", level=logging.INFO,
                    rule=rule.name, metric=rule.metric, frame=frame,
                )
        return events

    @property
    def active_alerts(self) -> list[str]:
        """Names of rules currently in breach."""
        with self._lock:
            return sorted(self._active_rules)

    @property
    def healthy(self) -> bool:
        """True while no watchdog rule is in breach."""
        with self._lock:
            return not self._active_rules

    # -- reading -------------------------------------------------------------

    def _window_values_locked(self) -> dict[str, float]:
        return aggregate_window_values(
            self._windows, self._ewma, self._sketches
        )

    def window_values(self) -> dict[str, float]:
        """Current window aggregates, EWMAs and quantiles by metric key."""
        with self._lock:
            return self._window_values_locked()

    @property
    def latest(self) -> MetricSnapshot | None:
        with self._lock:
            return self._latest

    def totals(self) -> dict[str, int | float]:
        """Cumulative counters over every observed frame."""
        with self._lock:
            return dict(self._total_counters)

    def totals_registry(self) -> CounterRegistry:
        """Cumulative counters as a real :class:`CounterRegistry`.

        Kinds are retained from the first frame that produced each
        counter, so per-tenant monitor shards merge into a global
        registry through the exact ``CounterAlgebra`` — summing the
        shards in any order reproduces the registry a single global
        monitor would hold, bit for bit (the serving frontend's
        tenant-merge contract, asserted by
        ``tests/observability/test_tenant_merge.py``).
        """
        with self._lock:
            registry = CounterRegistry()
            for name, value in self._total_counters.items():
                registry.register(self._counter_specs[name])
                registry.set(name, value)
            return registry
