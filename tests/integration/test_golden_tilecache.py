"""Golden tile-cache regression: committed hit/miss maps of two scenes.

Renders a fixed two-frame sequence of ``cap`` and ``temple`` with the
cross-frame tile cache enabled and compares the per-frame hit/miss tile
maps, replayed-tile counts, and the ``gpu.tilecache.*`` counters
against committed JSON fixtures — byte-exact.  Any change to the
signature key layout, the binning order, the config token, or the
replay bookkeeping shows up here as a precise map diff instead of a
silent hit-rate drift.

Regenerate the fixtures (after an *intentional* change) with:

    PYTHONPATH=src python tests/integration/test_golden_tilecache.py
"""

import json
from pathlib import Path

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.observability.tracer import Tracer
from repro.scenes.benchmarks import workload_by_alias

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SCENES = ("cap", "temple")
WIDTH, HEIGHT = 160, 96
DETAIL = 1
FRAME_TIMES = (0.0, 1.0)  # cold frame, then the mid-run animation frame


def fixture_path(alias: str) -> Path:
    return FIXTURE_DIR / f"golden_tilecache_{alias}.json"


def snapshot_scene(alias: str) -> dict:
    """Render the two-frame sequence cache-on and snapshot the cache."""
    config = GPUConfig().with_screen(WIDTH, HEIGHT).with_tile_cache(True)
    workload = workload_by_alias(alias, detail=DETAIL)

    frames = []
    tracer = Tracer()
    gpu = GPU(config, rbcd_enabled=True, tracer=tracer)
    cache = gpu.tile_cache
    assert cache is not None
    for t in FRAME_TIMES:
        tracer.reset()
        frame = workload.scene.frame_at(float(t), config)
        result = gpu.render_frame(frame)
        counters = result.tilecache.as_dict()
        # The replayed-tile count the RBCD unit tallied at absorb
        # time, surfaced through the rbcd span annotation.
        (rbcd_span,) = tracer.by_name("rbcd")
        frames.append({
            "time": t,
            "hit_tiles": sorted(cache.frame_hit_tiles),
            "miss_tiles": sorted(cache.frame_miss_tiles),
            "tiles_replayed": rbcd_span.attrs["tiles_replayed"],
            "counters": {
                name: counters[name]
                for name in sorted(counters)
            },
            "pairs": [list(p) for p in result.collisions.as_sorted_pairs()],
        })
    entries = cache.entries

    return {
        "scene": alias,
        "width": WIDTH,
        "height": HEIGHT,
        "detail": DETAIL,
        "frame_times": list(FRAME_TIMES),
        "frames": frames,
        "entries": entries,
    }


@pytest.mark.parametrize("alias", SCENES)
def test_golden_tilecache(alias):
    path = fixture_path(alias)
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        f"PYTHONPATH=src python {__file__}"
    )
    expected = json.loads(path.read_text())
    actual = json.loads(json.dumps(snapshot_scene(alias)))  # JSON-canonical

    for i, (want, got) in enumerate(zip(expected["frames"], actual["frames"])):
        assert got["hit_tiles"] == want["hit_tiles"], (
            f"frame {i}: hit map drifted"
        )
        assert got["miss_tiles"] == want["miss_tiles"], (
            f"frame {i}: miss map drifted"
        )
        assert got == want, f"frame {i}: cache snapshot drifted"
    assert actual == expected


@pytest.mark.parametrize("alias", SCENES)
def test_fixture_has_nonzero_hits(alias):
    """The committed sequences must actually exercise replay: the
    second frame of each scene has cross-frame hits (both scenes keep
    static collisionable props in view)."""
    fixture = json.loads(fixture_path(alias).read_text())
    second = fixture["frames"][1]
    assert second["counters"]["gpu.tilecache.hits"] > 0
    assert second["tiles_replayed"] == len(second["hit_tiles"])
    first = fixture["frames"][0]
    assert first["counters"]["gpu.tilecache.hits"] == 0  # cold start


@pytest.mark.parametrize("alias", SCENES)
def test_fixture_metadata_matches_test_config(alias):
    """Guard against editing the test constants without regenerating."""
    fixture = json.loads(fixture_path(alias).read_text())
    assert fixture["scene"] == alias
    assert (fixture["width"], fixture["height"]) == (WIDTH, HEIGHT)
    assert fixture["detail"] == DETAIL
    assert fixture["frame_times"] == list(FRAME_TIMES)


if __name__ == "__main__":
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for scene_alias in SCENES:
        out = fixture_path(scene_alias)
        out.write_text(
            json.dumps(snapshot_scene(scene_alias), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {out}")
