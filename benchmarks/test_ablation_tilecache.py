"""Ablation: cross-frame tile redundancy elimination.

*Rendering Elimination* (same group as the source paper) reports that
animated scenes keep large screen regions unchanged frame to frame; the
tile cache (:mod:`repro.gpu.tilecache`) exploits exactly that for the
collision path.  This bench quantifies the claim on the four Table-1
workloads and on a fully static control:

* with the cache ON versus OFF, every deterministic v4-era bench
  number is **identical** (replay is exact — the ablation doubles as a
  full-size differential test);
* every workload shows a nonzero hit rate — the scenes all keep some
  static collisionable geometry (floors, props) in view — and the
  modelled savings beat the signature overhead, so effective cycles
  and joules are strictly lower;
* a "paused" animation (the same frame re-rendered) is the static
  limit: after the cold first frame, every lookup hits.
"""

import functools

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.scenes.benchmarks import workload_by_alias

from benchmarks.conftest import (
    TILECACHE_FRAMES,
    TILECACHE_HEIGHT,
    TILECACHE_WIDTH,
)

# Scene entry keys that must not move when the cache is switched on:
# everything deterministic that existed before schema v5.
_INVARIANT_KEYS = ("totals", "energy", "cases")


def test_replay_is_exact_at_bench_scale(tilecache_runs):
    baseline, cached = tilecache_runs[False], tilecache_runs[True]
    for alias, base_entry in baseline["scenes"].items():
        cached_entry = cached["scenes"][alias]
        for key in _INVARIANT_KEYS:
            assert cached_entry[key] == base_entry[key], (
                f"{alias}.{key} moved when the cache was enabled"
            )
        # Counters: identical except the additive gpu.tilecache.* set.
        base_counters = base_entry["counters"]
        for name, value in base_counters.items():
            assert cached_entry["counters"][name] == value, (
                f"{alias}.counters.{name} moved when the cache was enabled"
            )
        extra = set(cached_entry["counters"]) - set(base_counters)
        assert extra and all(n.startswith("gpu.tilecache.") for n in extra)


# Scenes whose static collisionable geometry carries enough ZEB work
# for replay to beat the signature overhead.  ``sleepy`` is the honest
# counter-example: its redundant tiles hold so few collisionable
# fragments that the per-lookup compare costs more cycles than replay
# saves — caching is a knob, not a free lunch, and the bench records
# both sides.
_NET_WIN_SCENES = ("cap", "crazy", "temple")


def test_every_workload_hits_and_saves(tilecache_runs, benchmark):
    benchmark.pedantic(lambda: tilecache_runs, rounds=1, iterations=1)
    print()
    for alias, entry in tilecache_runs[True]["scenes"].items():
        tc = entry["tilecache"]
        print(
            f"  {alias:7s} hit rate {tc['hit_rate']:.1%} "
            f"({tc['hits']}/{tc['lookups']}), "
            f"effective cycles x{tc['effective_gpu_cycles'] / entry['totals']['gpu_cycles']:.4f}, "
            f"effective energy x{tc['effective_total_j'] / entry['energy']['total_j']:.4f}"
        )
        assert tc["enabled"] and tc["hits"] > 0, alias
        assert tc["collisions"] == 0, alias
        assert tc["per_frame_hits"][0] == 0, f"{alias}: frame 0 must be cold"
    for alias in _NET_WIN_SCENES:
        entry = tilecache_runs[True]["scenes"][alias]
        tc = entry["tilecache"]
        # Net win: replayed insertion+overlap work dwarfs the
        # per-lookup signature compare.
        assert tc["cycles_saved"] > tc["signature_cycles"], alias
        assert tc["effective_gpu_cycles"] < entry["totals"]["gpu_cycles"], alias
        assert tc["effective_total_j"] < entry["energy"]["total_j"], alias


@functools.cache
def run_paused_animation():
    """The static-region limit: re-render one fixed frame N times."""
    config = (
        GPUConfig()
        .with_screen(TILECACHE_WIDTH, TILECACHE_HEIGHT)
        .with_tile_cache(True)
    )
    workload = workload_by_alias("cap", detail=1)
    frame = workload.scene.frame_at(1.0, config)
    per_frame = []
    gpu = GPU(config, rbcd_enabled=True)
    for _ in range(TILECACHE_FRAMES):
        result = gpu.render_frame(frame)
        counters = result.tilecache.as_dict()
        per_frame.append((
            counters["gpu.tilecache.hits"],
            counters["gpu.tilecache.lookups"],
        ))
    return per_frame


def test_static_limit_hits_everything_after_warmup(benchmark):
    per_frame = benchmark.pedantic(
        run_paused_animation, rounds=1, iterations=1
    )
    print()
    for i, (hits, lookups) in enumerate(per_frame):
        print(f"  paused frame {i}: {hits}/{lookups} hits")
    first_hits, _ = per_frame[0]
    assert first_hits == 0  # cold cache
    for hits, lookups in per_frame[1:]:
        assert lookups > 0 and hits == lookups  # 100% after warmup
