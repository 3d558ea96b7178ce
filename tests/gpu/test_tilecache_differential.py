"""Differential suite: cache-on is bit-identical to cache-off.

The tile cache's contract (:mod:`repro.gpu.tilecache`) is *exactness*:
replaying a cached :class:`~repro.rbcd.unit.RBCDTileResult` on a
signature hit must leave every deterministic output — collision pairs,
contact records, GPU stats counters, simulated cycles, modelled energy,
provenance evidence — byte-for-byte equal to recomputing the tile.
This suite renders every quick benchmark scene as a real multi-frame
animation (the only setting where cross-frame hits exist) with the
cache off and on, at one and four workers, under both the reference and
vectorized kernel backends, and diffs complete frame fingerprints.
"""

import pytest

from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.observability.provenance import ProvenanceRecorder
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias

WIDTH, HEIGHT = 160, 96
DETAIL = 1
FRAMES = 3  # frame 0 is always cold; later frames can hit


def animation_fingerprints(
    alias: str,
    kernel_backend: str,
    tile_cache: bool,
    workers: int = 1,
) -> tuple[list[dict], list[dict], int]:
    """Render the workload's animation; per-frame fingerprints +
    evidence records + the total number of cache hits."""
    config = (
        GPUConfig()
        .with_screen(WIDTH, HEIGHT)
        .with_kernel_backend(kernel_backend)
        .with_tile_cache(tile_cache)
    )
    if workers != 1:
        config = config.with_executor(workers=workers, backend="thread")
    workload = workload_by_alias(alias, detail=DETAIL)
    recorder = ProvenanceRecorder()
    fingerprints: list[dict] = []
    evidence: list[dict] = []
    hits = 0
    with GPU(config, rbcd_enabled=True, observers=[recorder]) as gpu:
        for t in workload.times(FRAMES):
            frame = workload.scene.frame_at(float(t), config)
            result = gpu.render_frame(frame)
            report = result.collisions
            fingerprints.append({
                "pairs": report.as_sorted_pairs(),
                "contacts": {
                    (p.id_a, p.id_b):
                        [(c.x, c.y, c.z_front, c.z_back) for c in pts]
                    for p, pts in report.contacts.items()
                },
                "pair_records_written": report.pair_records_written,
                "stats": result.stats.as_dict(),
                "counters": result.stats.registry().as_dict(),
                "gpu_cycles": result.gpu_cycles,
                "energy": result.energy.as_dict(),
                "cpu_fallback": result.cpu_fallback,
            })
            if result.tilecache is not None:
                hits += result.tilecache.as_dict()["gpu.tilecache.hits"]
        evidence = [e.as_record() for e in recorder.records]
        evidence_summary = [{
            "cases": recorder.case_histogram(),
            "self_filtered": recorder.self_pairs_filtered,
            "records": evidence,
        }]
    return fingerprints, evidence_summary, hits


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("alias", list(BENCHMARKS))
def test_cache_on_equals_cache_off(alias, backend):
    baseline, base_evidence, _ = animation_fingerprints(
        alias, backend, tile_cache=False
    )
    for workers in (1, 4):
        cached, evidence, hits = animation_fingerprints(
            alias, backend, tile_cache=True, workers=workers
        )
        assert cached == baseline, (
            f"{alias}/{backend}/workers={workers}: cache-on output "
            f"diverged from cache-off"
        )
        assert evidence == base_evidence, (
            f"{alias}/{backend}/workers={workers}: provenance evidence "
            f"diverged under replay"
        )
        assert hits > 0, (
            f"{alias}/{backend}/workers={workers}: the animation produced "
            f"no cross-frame hits — the differential ran vacuously"
        )


def test_repeated_identical_frame_hits_every_tile():
    """Rendering the exact same frame twice must replay every RBCD
    tile the second time — the strongest possible redundancy."""
    config = GPUConfig().with_screen(WIDTH, HEIGHT).with_tile_cache(True)
    workload = workload_by_alias("cap", detail=DETAIL)
    frame = workload.scene.frame_at(1.0, config)
    with GPU(config, rbcd_enabled=True) as gpu:
        first = gpu.render_frame(frame)
        second = gpu.render_frame(frame)
    counters = second.tilecache.as_dict()
    assert counters["gpu.tilecache.lookups"] > 0
    assert counters["gpu.tilecache.hits"] == counters["gpu.tilecache.lookups"]
    assert counters["gpu.tilecache.collisions"] == 0
    assert first.collisions.as_sorted_pairs() == second.collisions.as_sorted_pairs()
    assert first.stats.as_dict() == second.stats.as_dict()


def test_savings_price_only_replayed_tiles():
    """cycles_saved equals the summed insertion+overlap cycles of the
    hit tiles — never more than the frame actually spent on RBCD."""
    config = GPUConfig().with_screen(WIDTH, HEIGHT).with_tile_cache(True)
    workload = workload_by_alias("cap", detail=DETAIL)
    frame = workload.scene.frame_at(1.0, config)
    with GPU(config, rbcd_enabled=True) as gpu:
        gpu.render_frame(frame)
        result = gpu.render_frame(frame)
    counters = result.tilecache.as_dict()
    # Insertion costs one cycle per ZEB insertion; overlap busy cycles
    # are tracked directly — together an upper bound on what replay
    # could possibly have saved.
    rbcd_cycles = result.stats.zeb_insertions + result.stats.rbcd_cycles
    assert 0 < counters["gpu.tilecache.cycles_saved"] <= rbcd_cycles
    assert 0 < counters["gpu.tilecache.joules_saved"] < result.energy.total_j
