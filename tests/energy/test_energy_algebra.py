"""Energy merge algebra: sharding invariance and linearity.

Per-tile and per-frame energy merge by plain sums, so anything carried
through the merge must form a commutative monoid.  These tests pin that
down for the energy breakdowns: randomized shardings of the same work
always price to the same joules, and per-frame reports sum to the
priced sum of stats.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.energy.gpu_power import GPUEnergyBreakdown, GPUEnergyModel
from repro.energy.rbcd_power import RBCDEnergyBreakdown, RBCDEnergyModel
from repro.energy.report import EnergyAccount, FrameEnergyReport
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats

APPROX = dict(rel=1e-12, abs=1e-30)


def random_gpu_breakdown(rng):
    return GPUEnergyBreakdown(
        geometry_j=rng.uniform(0, 1e-3),
        raster_j=rng.uniform(0, 1e-3),
        fragment_j=rng.uniform(0, 1e-3),
        memory_j=rng.uniform(0, 1e-3),
        static_j=rng.uniform(0, 1e-3),
    )


def random_rbcd_breakdown(rng):
    return RBCDEnergyBreakdown(
        insertion_j=rng.uniform(0, 1e-4),
        overlap_j=rng.uniform(0, 1e-4),
        output_j=rng.uniform(0, 1e-4),
        static_j=rng.uniform(0, 1e-4),
    )


def tile_breakdowns(model, tiles) -> list[RBCDEnergyBreakdown]:
    """``model.tile_breakdown``'s per-tile columns, one scalar breakdown
    per tile."""
    columns = model.tile_breakdown(tiles)
    return [
        RBCDEnergyBreakdown(*(float(value) for value in row))
        for row in zip(
            columns.insertion_j, columns.overlap_j, columns.output_j
        )
    ]


def random_shards(items, rng):
    """Partition ``items`` into 1..len contiguous shards, shuffled."""
    items = list(items)
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, len(items)), rng.randint(0, len(items) - 1)))
    shards = []
    prev = 0
    for cut in cuts + [len(items)]:
        shards.append(items[prev:cut])
        prev = cut
    return [s for s in shards if s]


class TestBreakdownAlgebra:
    @pytest.mark.parametrize("factory", [random_gpu_breakdown,
                                         random_rbcd_breakdown])
    def test_commutative(self, factory):
        rng = random.Random(1)
        a, b = factory(rng), factory(rng)
        assert (a + b).as_dict() == (b + a).as_dict()

    @pytest.mark.parametrize("factory", [random_gpu_breakdown,
                                         random_rbcd_breakdown])
    def test_associative_within_float_noise(self, factory):
        rng = random.Random(2)
        a, b, c = (factory(rng) for _ in range(3))
        left = ((a + b) + c).as_dict()
        right = (a + (b + c)).as_dict()
        for key in left:
            assert left[key] == pytest.approx(right[key], **APPROX)

    @pytest.mark.parametrize("factory,cls", [
        (random_gpu_breakdown, GPUEnergyBreakdown),
        (random_rbcd_breakdown, RBCDEnergyBreakdown),
    ])
    def test_randomized_sharding_reaches_same_total(self, factory, cls):
        rng = random.Random(3)
        parts = [factory(rng) for _ in range(12)]
        reference = cls.sum(parts).total_j
        for trial in range(20):
            shards = random_shards(parts, rng)
            merged = cls.sum(cls.sum(shard) for shard in shards)
            assert merged.total_j == pytest.approx(reference, **APPROX)

    @pytest.mark.parametrize("factory", [random_gpu_breakdown,
                                         random_rbcd_breakdown])
    def test_sum_builtin_and_identity(self, factory):
        rng = random.Random(4)
        parts = [factory(rng) for _ in range(5)]
        via_builtin = sum(parts)          # exercises __radd__ with 0
        via_cls = type(parts[0]).sum(parts)
        assert via_builtin.as_dict() == via_cls.as_dict()

    @pytest.mark.parametrize("factory", [random_gpu_breakdown,
                                         random_rbcd_breakdown])
    def test_registry_merge_matches_breakdown_merge(self, factory):
        rng = random.Random(5)
        a, b = factory(rng), factory(rng)
        merged_reg = (a.registry() + b.registry()).as_dict()
        direct_reg = (a + b).registry().as_dict()
        assert set(merged_reg) == set(direct_reg)
        for name in direct_reg:
            assert merged_reg[name] == pytest.approx(direct_reg[name], **APPROX)


class TestPricingLinearity:
    """Energy is linear in the counters it is priced from, so the order
    of (sum, price) never matters — the property that lets per-frame
    and per-shard energy survive every merge in the system."""

    @staticmethod
    def random_stats(rng):
        return GPUStats(
            frames=1,
            vertices_shaded=rng.randint(0, 5000),
            vertex_cache_misses=rng.randint(0, 500),
            triangles_assembled=rng.randint(0, 2000),
            tile_cache_stores=rng.randint(0, 1000),
            tile_cache_store_misses=rng.randint(0, 100),
            tile_cache_loads=rng.randint(0, 1000),
            tile_cache_load_misses=rng.randint(0, 100),
            fragments_produced=rng.randint(0, 20000),
            early_z_tests=rng.randint(0, 20000),
            fragments_shaded=rng.randint(0, 10000),
            texture_accesses=rng.randint(0, 10000),
            color_writes=rng.randint(0, 10000),
            zeb_insertions=rng.randint(0, 8000),
            overlap_elements_read=rng.randint(0, 8000),
            collision_pairs_emitted=rng.randint(0, 400),
            gpu_cycles=rng.uniform(1e4, 1e6),
        )

    def test_sum_of_reports_equals_report_of_sum(self):
        rng = random.Random(6)
        config = GPUConfig().with_screen(64, 32)
        account = EnergyAccount(config)
        stats = [self.random_stats(rng) for _ in range(8)]
        per_frame = sum(account.frame_report(s) for s in stats)
        of_sum = account.frame_report(GPUStats.sum(stats))
        assert isinstance(per_frame, FrameEnergyReport)
        assert per_frame.total_j == pytest.approx(of_sum.total_j, **APPROX)
        assert per_frame.delay_s == pytest.approx(of_sum.delay_s, **APPROX)
        assert per_frame.gpu.as_dict().keys() == of_sum.gpu.as_dict().keys()
        for key, value in of_sum.gpu.as_dict().items():
            assert per_frame.gpu.as_dict()[key] == pytest.approx(value, **APPROX)
        for key, value in of_sum.rbcd.as_dict().items():
            assert per_frame.rbcd.as_dict()[key] == pytest.approx(value, **APPROX)

    def test_edp_accumulates_as_total_times_total_delay(self):
        config = GPUConfig().with_screen(64, 32)
        account = EnergyAccount(config)
        rng = random.Random(7)
        reports = [account.frame_report(self.random_stats(rng))
                   for _ in range(3)]
        run = sum(reports)
        assert run.edp_js == pytest.approx(run.total_j * run.delay_s, **APPROX)
        assert run.delay_s == pytest.approx(
            sum(r.delay_s for r in reports), **APPROX
        )

    def test_tile_shards_sum_to_frame_dynamic_energy(self):
        """Per-tile dynamic pricing reassembles exactly into the frame
        breakdown minus static."""
        config = GPUConfig().with_screen(64, 32)
        model = RBCDEnergyModel(config)
        rng = random.Random(8)
        pairs = [rng.randint(0, 50) for _ in range(16)]
        tiles = SimpleNamespace(
            insertions=np.array([rng.randint(0, 500) for _ in range(16)]),
            analyzed_elements=np.array(
                [rng.randint(0, 500) for _ in range(16)]
            ),
            pair_offsets=np.cumsum([0] + pairs),
        )
        frame_stats = GPUStats(
            zeb_insertions=int(tiles.insertions.sum()),
            overlap_elements_read=int(tiles.analyzed_elements.sum()),
            collision_pairs_emitted=sum(pairs),
            gpu_cycles=1e5,
        )
        frame = model.breakdown(frame_stats)
        per_tile = tile_breakdowns(model, tiles)
        assert len(per_tile) == 16
        for trial in range(10):
            shards = random_shards(per_tile, rng)
            merged = RBCDEnergyBreakdown.sum(
                RBCDEnergyBreakdown.sum(shard) for shard in shards
            )
            assert merged.static_j == 0.0
            assert merged.insertion_j == pytest.approx(frame.insertion_j, **APPROX)
            assert merged.overlap_j == pytest.approx(frame.overlap_j, **APPROX)
            assert merged.output_j == pytest.approx(frame.output_j, **APPROX)
            assert merged.total_j == pytest.approx(
                frame.total_j - frame.static_j, **APPROX
            )

    def test_tile_energy_registry_names(self):
        config = GPUConfig().with_screen(64, 32)
        model = RBCDEnergyModel(config)
        tile = SimpleNamespace(
            insertions=np.array([10]),
            analyzed_elements=np.array([20]),
            pair_offsets=np.array([0, 2]),
        )
        (breakdown,) = tile_breakdowns(model, tile)
        reg = breakdown.registry().as_dict()
        assert reg["energy.rbcd.insertion_j"] == pytest.approx(
            10 * model.insertion_energy_per_fragment_j()
        )
        assert reg["energy.rbcd.static_j"] == 0.0
        assert reg["energy.rbcd.total_j"] > 0.0
