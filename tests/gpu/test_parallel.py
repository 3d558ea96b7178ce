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
from tests.rbcd.tile_oracle import tile_tasks


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
        from tests.rbcd.tile_oracle import tile_batch

        result = TileExecutor().run(GPUConfig(), tile_batch())
        assert len(result) == 0
        assert result.pair_offsets.tolist() == [0]

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

    def test_one_compute_call_per_frame(self, small_config, monkeypatch):
        # The benchmark harness times repro.gpu.parallel.compute_tile by
        # that name; a frame's tiles go through it in one call.
        import repro.gpu.parallel as parallel

        batches = []
        real = parallel.compute_tile

        def counting(config, batch):
            batches.append(len(batch))
            return real(config, batch)

        monkeypatch.setattr(parallel, "compute_tile", counting)
        GPU(small_config).render_frame(two_boxes_frame(small_config, 0.8))
        assert len(batches) == 1
        assert batches[0] > 1  # several tiles in that one batch

    def test_frame_computes_the_fragment_tile_index_once(
        self, monkeypatch, small_config
    ):
        # The RBCD gather and the tile schedule share one tile index.
        from repro.gpu.raster import FragmentSoup

        calls = []
        real = FragmentSoup.tile_index

        def counting(self, config):
            calls.append(self.count)
            return real(self, config)

        monkeypatch.setattr(FragmentSoup, "tile_index", counting)
        GPU(small_config).render_frame(two_boxes_frame(small_config, 0.8))
        assert len(calls) == 1 and calls[0] > 0

    def test_gather_with_a_given_tile_index_matches(self, small_config):
        frags = GPU(small_config).render_frame(
            two_boxes_frame(small_config, 0.8), keep_fragments=True
        ).fragments
        ours = gather_tile_tasks(
            frags, small_config, frags.tile_index(small_config)
        )
        theirs = gather_tile_tasks(frags, small_config)
        for name in ("tile_index", "offsets", "x", "y", "z", "object_id", "front"):
            np.testing.assert_array_equal(
                getattr(ours, name), getattr(theirs, name), err_msg=name
            )

    def test_tile_stats_of_result(self, small_config):
        result = GPU(small_config).render_frame(
            two_boxes_frame(small_config, 0.8), keep_fragments=True
        )
        tasks = gather_tile_tasks(result.fragments, small_config)
        tiles = TileExecutor().run(small_config, tasks)
        views = tile_tasks(tasks)
        assert tiles.tile_index.tolist() == [t.tile_index for t in views]
        assert tiles.insertions.tolist() == [t.fragment_count for t in views]
        assert tiles.zeb.insertions == tasks.fragment_count


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
