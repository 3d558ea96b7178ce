"""The serial tile loop and the counter accumulation algebra.

Stats and registries add by plain sums, so any grouping of the parts —
shuffled, sharded — reaches the same totals.
"""

import random

import numpy as np
import pytest

from repro.core import RBCDSystem
from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileExecutor, gather_tile_tasks
from repro.gpu.pipeline import GPU
from repro.observability.counters import CounterRegistry
from repro.gpu.stats import GPUStats
from tests.conftest import two_boxes_frame


def frame_fingerprint(result):
    report = result.collisions
    return {
        "pairs": report.as_sorted_pairs(),
        "contacts": {
            (p.id_a, p.id_b): [(c.x, c.y, c.z_front, c.z_back) for c in pts]
            for p, pts in report.contacts.items()
        },
        "pair_records_written": report.pair_records_written,
        "stats": result.stats.as_dict(),
        "gpu_cycles": result.gpu_cycles,
    }


class TestStatsMergeAlgebra:
    @staticmethod
    def random_stats(rng):
        # Integer-valued fields keep float addition exact, so shuffled
        # merge orders must agree to the last bit.
        stats = GPUStats()
        for f in GPUStats.__dataclass_fields__:
            value = int(rng.randrange(0, 1000))
            current = getattr(stats, f)
            setattr(stats, f, float(value) if isinstance(current, float) else value)
        return stats

    def test_add_commutative_and_associative_over_shuffled_tiles(self):
        rng = random.Random(3)
        parts = [self.random_stats(rng) for _ in range(12)]
        reference = GPUStats.sum(parts).as_dict()
        for seed in range(5):
            shuffled = parts[:]
            random.Random(seed).shuffle(shuffled)
            assert GPUStats.sum(shuffled).as_dict() == reference
        a, b = parts[0], parts[1]
        assert (a + b).as_dict() == (b + a).as_dict()
        assert ((a + b) + parts[2]).as_dict() == (a + (b + parts[2])).as_dict()

    def test_plain_sum_over_stats(self):
        rng = random.Random(1)
        parts = [self.random_stats(rng) for _ in range(4)]
        assert sum(parts).as_dict() == GPUStats.sum(parts).as_dict()

    def test_sum_of_empty_iterable_is_zero_stats(self):
        total = GPUStats.sum([])
        assert isinstance(total, GPUStats)
        assert total.as_dict() == GPUStats().as_dict()

    def test_radd_rejects_nonzero_garbage(self):
        with pytest.raises(TypeError):
            1 + GPUStats()
        with pytest.raises(TypeError):
            "x" + GPUStats()


class TestExecutorMachinery:
    def test_run_on_empty_task_list(self):
        assert TileExecutor().run(GPUConfig(), []) == []

    def test_close_is_idempotent_and_reopenable(self, small_config):
        # The system holds no resources: close() is a no-op that may be
        # called any number of times, and the system keeps detecting.
        frame = two_boxes_frame(small_config, 0.8)
        system = RBCDSystem(config=small_config)
        before = frame_fingerprint(GPU(small_config).render_frame(frame))
        system.close()
        system.close()
        with system:
            result = system.detect_frame(frame)
        assert result.report.as_sorted_pairs() == before["pairs"]
        assert result.stats.as_dict() == before["stats"]

    def test_tile_stats_of_result(self, small_config):
        result = GPU(small_config).render_frame(
            two_boxes_frame(small_config, 0.8), keep_fragments=True
        )
        tasks = gather_tile_tasks(result.fragments, small_config)
        tile_results = TileExecutor().run(small_config, tasks)
        assert [r.tile_index for r in tile_results] == [
            t.tile_index for t in tasks
        ]
        assert sum(r.zeb.insertions for r in tile_results) == sum(
            t.fragment_count for t in tasks
        )


class TestShardedMergeAlgebra:
    """Stats and registry sums are associative and commutative over any
    randomized sharding of the parts."""

    @staticmethod
    def shard(items, rng, num_shards):
        shards = [[] for _ in range(num_shards)]
        for item in items:
            shards[rng.randrange(num_shards)].append(item)
        return [s for s in shards if s]

    def test_gpu_stats_sharded_merge_matches_flat_sum(self):
        rng = random.Random(11)
        parts = [TestStatsMergeAlgebra.random_stats(rng) for _ in range(24)]
        reference = GPUStats.sum(parts).as_dict()
        for seed in range(6):
            shard_rng = random.Random(seed)
            shards = self.shard(parts, shard_rng, shard_rng.randrange(2, 7))
            shard_rng.shuffle(shards)
            merged = GPUStats.sum(GPUStats.sum(s) for s in shards)
            assert merged.as_dict() == reference

    def test_registry_add_commutative_and_associative(self):
        rng = random.Random(13)

        def random_registry():
            registry = CounterRegistry()
            for name in ("a.x", "a.y", "b.z"):
                registry.counter(name)
                registry.set(name, rng.randrange(0, 100))
            registry.counter("b.cycles", kind="float", unit="cycles")
            registry.set("b.cycles", float(rng.randrange(0, 100)))
            return registry

        a, b, c = (random_registry() for _ in range(3))
        assert (a + b).as_dict() == (b + a).as_dict()
        assert ((a + b) + c).as_dict() == (a + (b + c)).as_dict()
        assert (0 + a).as_dict() == a.as_dict()
        assert CounterRegistry.sum([a, b, c]).as_dict() == ((a + b) + c).as_dict()
