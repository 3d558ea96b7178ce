"""Golden-frame counter regression: per-tile snapshots of two scenes.

Renders one fixed frame of two benchmark workloads (``cap`` and
``temple``) at a small resolution and compares the per-tile RBCD
counters plus the frame-level GPU counters against committed JSON
fixtures.  Any change to binning, rasterization order, ZEB insertion,
the Z-Overlap Test, or the cycle model shows up here as a precise
per-tile diff instead of a silent drift.

Regenerate the fixtures (after an *intentional* change) with:

    PYTHONPATH=src python tests/integration/test_golden_counters.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.pipeline import GPU
from repro.scenes.benchmarks import workload_by_alias

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SCENES = ("cap", "temple")
WIDTH, HEIGHT = 160, 96
DETAIL = 1
FRAME_TIME = 1.0  # mid-run: objects are interacting in both scenes

# Frame-level counters included in the snapshot.  Wall-clock metrics
# are deliberately absent: everything here is deterministic.
FRAME_COUNTER_NAMES = (
    "gpu.geometry.triangles_assembled",
    "gpu.geometry.triangles_binned",
    "gpu.geometry.geometry_cycles",
    "gpu.raster.fragments_produced",
    "gpu.raster.early_z_tests",
    "gpu.raster.early_z_passes",
    "gpu.rbcd.rbcd_fragments_in",
    "gpu.rbcd.zeb_insertions",
    "gpu.rbcd.zeb_overflow_events",
    "gpu.rbcd.zeb_spare_allocations",
    "gpu.rbcd.zeb_lists_analyzed",
    "gpu.rbcd.overlap_elements_read",
    "gpu.rbcd.collision_pairs_emitted",
    "gpu.rbcd.rbcd_cycles",
)


def fixture_path(alias: str) -> Path:
    return FIXTURE_DIR / f"golden_counters_{alias}.json"


def snapshot_scene(alias: str) -> dict:
    """Render the golden frame and collect per-tile + frame counters."""
    config = GPUConfig().with_screen(WIDTH, HEIGHT)
    workload = workload_by_alias(alias, detail=DETAIL)
    frame = workload.scene.frame_at(FRAME_TIME, config)

    gpu = GPU(config, rbcd_enabled=True)
    result = gpu.render_frame(frame, keep_fragments=True)
    assert result.fragments is not None

    registry = result.stats.registry()
    missing = [n for n in FRAME_COUNTER_NAMES if n not in registry]
    assert not missing, f"counters renamed or removed: {missing}"
    frame_counters = {name: registry[name] for name in FRAME_COUNTER_NAMES}

    tasks = gather_tile_tasks(result.fragments, config)
    frame_tiles = TileExecutor().run(config, tasks)
    columns = {
        name: getattr(frame_tiles, name).tolist()
        for name in (
            "tile_index", "insertions", "overflow_events",
            "spare_allocations", "analyzed_lists", "analyzed_elements",
            "insertion_cycles", "overlap_cycles",
        )
    }
    columns["pair_records"] = np.diff(frame_tiles.pair_offsets).tolist()
    tiles = [dict(zip(columns, row)) for row in zip(*columns.values())]

    return {
        "scene": alias,
        "width": WIDTH,
        "height": HEIGHT,
        "detail": DETAIL,
        "frame_time": FRAME_TIME,
        "frame_counters": frame_counters,
        "tiles": tiles,
    }


@pytest.mark.parametrize("alias", SCENES)
def test_golden_counters(alias):
    path = fixture_path(alias)
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        f"PYTHONPATH=src python {__file__}"
    )
    expected = json.loads(path.read_text())
    actual = snapshot_scene(alias)

    assert actual["frame_counters"] == expected["frame_counters"], (
        "frame-level counters drifted"
    )
    expected_tiles = {t["tile_index"]: t for t in expected["tiles"]}
    actual_tiles = {t["tile_index"]: t for t in actual["tiles"]}
    assert sorted(actual_tiles) == sorted(expected_tiles), (
        "set of active tiles changed"
    )
    for tile_index, want in expected_tiles.items():
        got = actual_tiles[tile_index]
        assert got == want, f"tile {tile_index} counters drifted"


@pytest.mark.parametrize("alias", SCENES)
def test_fixture_metadata_matches_test_config(alias):
    """Guard against editing the test constants without regenerating."""
    path = fixture_path(alias)
    assert path.exists()
    fixture = json.loads(path.read_text())
    assert fixture["scene"] == alias
    assert (fixture["width"], fixture["height"]) == (WIDTH, HEIGHT)
    assert fixture["detail"] == DETAIL
    assert fixture["frame_time"] == FRAME_TIME


if __name__ == "__main__":
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for scene_alias in SCENES:
        out = fixture_path(scene_alias)
        out.write_text(
            json.dumps(snapshot_scene(scene_alias), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {out}")
