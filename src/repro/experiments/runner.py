"""Shared experiment runner with caching.

Full-resolution simulations take seconds per frame, and every figure
bench consumes the same underlying runs, so this module memoizes the
expensive simulation by its parameters: all figure/table benches of one
pytest session share a single set of renders.
"""

from __future__ import annotations

from functools import lru_cache

from repro.experiments.overflow import OverflowSweepResult, overflow_sweep
from repro.experiments.systems import WorkloadRun, run_workload
from repro.gpu.config import GPUConfig
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias


@lru_cache(maxsize=8)
def _cached_run(
    alias: str, width: int, height: int, frames: int, detail: int,
    zeb_counts: tuple[int, ...],
) -> WorkloadRun:
    workload = workload_by_alias(alias, detail)
    config = GPUConfig().with_screen(width, height)
    return run_workload(workload, config, frames=frames, zeb_counts=zeb_counts)


@lru_cache(maxsize=8)
def _cached_sweep(
    alias: str, width: int, height: int, frames: int, detail: int,
    m_values: tuple[int, ...], spare_entries: int,
) -> OverflowSweepResult:
    workload = workload_by_alias(alias, detail)
    config = GPUConfig().with_screen(width, height)
    return overflow_sweep(
        workload, config, m_values=m_values, frames=frames,
        spare_entries=spare_entries,
    )


def run_all_benchmarks(
    width: int = 800,
    height: int = 480,
    frames: int = 8,
    detail: int = 2,
    zeb_counts: tuple[int, ...] = (1, 2),
) -> list[WorkloadRun]:
    """All four Table-1 benchmarks under every system (memoized)."""
    return [
        _cached_run(alias, width, height, frames, detail, tuple(zeb_counts))
        for alias in BENCHMARKS
    ]


def run_overflow_sweeps(
    width: int = 800,
    height: int = 480,
    frames: int = 8,
    detail: int = 2,
    m_values: tuple[int, ...] = (4, 8, 16),
    spare_entries: int = 0,
) -> list[OverflowSweepResult]:
    """Table-3 overflow sweeps for all benchmarks (memoized)."""
    return [
        _cached_sweep(
            alias, width, height, frames, detail, tuple(m_values),
            spare_entries,
        )
        for alias in BENCHMARKS
    ]
