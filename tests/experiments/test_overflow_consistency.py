"""The M-sweep re-run path must match the pipeline's in-line RBCD run.

``overflow_sweep`` re-feeds saved fragment streams through fresh RBCD
units; if that path ever diverged from what the pipeline's own unit
computed, Table 3 would be measuring a different machine.
"""

import pytest

from repro.experiments.overflow import rerun_unit
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.scenes.benchmarks import make_sleepy

CFG = GPUConfig().with_screen(200, 120)


@pytest.fixture(scope="module")
def rendered_frames():
    workload = make_sleepy(detail=1)
    gpu = GPU(CFG, rbcd_enabled=True)
    results = []
    for t in workload.times(3):
        frame = workload.scene.frame_at(float(t), CFG)
        results.append(gpu.render_frame(frame, keep_fragments=True))
    return results


class TestRerunMatchesPipeline:
    def test_same_insertions(self, rendered_frames):
        for result in rendered_frames:
            unit = rerun_unit(result.fragments, CFG)
            assert unit.tiles.zeb.insertions == result.stats.zeb_insertions

    def test_same_overflow_events(self, rendered_frames):
        for result in rendered_frames:
            unit = rerun_unit(result.fragments, CFG)
            assert (
                unit.tiles.zeb.overflow_events
                == result.stats.zeb_overflow_events
            )

    def test_same_pairs(self, rendered_frames):
        for result in rendered_frames:
            unit = rerun_unit(result.fragments, CFG)
            assert unit.report.as_sorted_pairs() == (
                result.collisions.as_sorted_pairs()
            )

    def test_same_pair_records(self, rendered_frames):
        for result in rendered_frames:
            unit = rerun_unit(result.fragments, CFG)
            assert (
                unit.report.pair_records_written
                == result.stats.collision_pairs_emitted
            )

    def test_same_analysis_volume(self, rendered_frames):
        for result in rendered_frames:
            unit = rerun_unit(result.fragments, CFG)
            assert (
                int(unit.tiles.analyzed_lists.sum())
                == result.stats.zeb_lists_analyzed
            )
            assert (
                int(unit.tiles.analyzed_elements.sum())
                == result.stats.overlap_elements_read
            )
