"""Shared benchmark configuration.

All figure benches run the paper's full setup — WVGA (800x480), the
four Table-1 workloads, both ZEB counts — through the memoized runner,
so one pytest session simulates each configuration exactly once no
matter how many benches consume it.

Every bench prints its figure as an ASCII table (visible with ``-s`` or
in the captured output) and asserts the *shape* constraints the paper's
conclusions rest on; absolute numbers are recorded for EXPERIMENTS.md,
not asserted.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_all_benchmarks, run_overflow_sweeps

# The paper's evaluation setup.
WIDTH, HEIGHT = 800, 480
FRAMES = 8
DETAIL = 2
ZEB_COUNTS = (1, 2)


@pytest.fixture(scope="session")
def paper_runs():
    """All four benchmarks under every system (shared across benches)."""
    return run_all_benchmarks(
        width=WIDTH, height=HEIGHT, frames=FRAMES, detail=DETAIL,
        zeb_counts=ZEB_COUNTS,
    )


@pytest.fixture(scope="session")
def overflow_sweeps():
    """Table-3 ZEB list-length sweeps (shared across benches)."""
    return run_overflow_sweeps(
        width=WIDTH, height=HEIGHT, frames=FRAMES, detail=DETAIL,
        m_values=(4, 8, 16),
    )


def show(figure_data) -> None:
    from repro.experiments import tables

    print()
    print(tables.render_figure(figure_data))
    print(tables.render_comparison(figure_data))
