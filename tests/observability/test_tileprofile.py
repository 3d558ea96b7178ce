"""TileProfiler unit tests: grids, merging, round-trips, guard rails."""

from types import SimpleNamespace

import pytest

from repro.energy.rbcd_power import RBCDEnergyModel
from repro.gpu.config import GPUConfig
from repro.observability.tileprofile import GRID_NAMES, TileProfiler


class FakeResult:
    """Duck-typed RBCDTileResult: just the fields record_tile reads."""

    def __init__(self, tile_index, insertion=10.0, overlap=5.0,
                 insertions=3):
        self.tile_index = tile_index
        self.insertion_cycles = insertion
        self.overlap_cycles = overlap
        self.zeb = SimpleNamespace(insertions=insertions)
        self.analyzed_elements = 2 * insertions
        self.overlap = SimpleNamespace(pair_records=1)


def small_config():
    # 64x32 at the default 16x16 tile size: 4x2 = 8 tiles.
    return GPUConfig().with_screen(64, 32)


class TestRecording:
    def test_grids_start_empty_and_dimensions_come_from_config(self):
        profiler = TileProfiler()
        assert profiler.tile_count == 0
        assert profiler.grid("cycles") == []
        profiler.begin_frame(small_config())
        assert (profiler.tiles_x, profiler.tiles_y) == (4, 2)
        assert profiler.grid("cycles") == [0.0] * 8
        assert profiler.frames == 1

    def test_record_tile_accumulates_all_grids(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        profiler.record_tile(FakeResult(3), replayed=True)
        profiler.record_tile(FakeResult(3))
        # Energy is priced by the begin_frame config's RBCD model.
        tile_j = RBCDEnergyModel(small_config()).tile_breakdown(
            FakeResult(3)
        ).total_j
        assert tile_j > 0.0
        assert profiler.grid("cycles")[3] == 30.0
        assert profiler.grid("energy_j")[3] == 2 * tile_j
        assert profiler.grid("activity")[3] == 6.0
        assert profiler.grid("hits")[3] == 1.0
        assert profiler.grid("lookups")[3] == 2.0
        # Untouched tiles stay zero.
        assert profiler.grid("cycles")[0] == 0.0

    def test_record_before_begin_frame_raises(self):
        with pytest.raises(RuntimeError, match="begin_frame"):
            TileProfiler().record_tile(FakeResult(0))

    def test_dimension_change_raises(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        with pytest.raises(ValueError, match="reset"):
            profiler.begin_frame(GPUConfig().with_screen(128, 128))

    def test_reset_clears_everything(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        profiler.record_tile(FakeResult(0))
        profiler.reset()
        assert profiler.frames == 0
        assert profiler.tile_count == 0
        # After a reset a different screen size is fine.
        profiler.begin_frame(GPUConfig().with_screen(128, 128))

    def test_unknown_grid_name_raises(self):
        with pytest.raises(KeyError, match="unknown grid"):
            TileProfiler().grid("temperature")


class TestMerge:
    def make(self, tile, cycles=10.0):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        profiler.record_tile(FakeResult(tile, insertion=cycles, overlap=0.0))
        return profiler

    def test_merge_adds_elementwise(self):
        a = self.make(0, cycles=10.0)
        b = self.make(0, cycles=5.0)
        b.record_tile(FakeResult(7))
        a.merge(b)
        assert a.grid("cycles")[0] == 15.0
        assert a.grid("cycles")[7] == 15.0
        assert a.frames == 2

    def test_merge_into_empty_copies(self):
        empty = TileProfiler()
        full = self.make(2)
        empty.merge(full)
        assert empty.grid("cycles") == full.grid("cycles")
        # A copy, not an alias.
        full.record_tile(FakeResult(2))
        assert empty.grid("cycles") != full.grid("cycles")

    def test_merge_empty_is_identity(self):
        full = self.make(2)
        before = full.as_dict()
        full.merge(TileProfiler())
        assert full.as_dict() == before

    def test_merge_dimension_mismatch_raises(self):
        other = TileProfiler()
        other.begin_frame(GPUConfig().with_screen(128, 128))
        with pytest.raises(ValueError, match="dimensions"):
            self.make(0).merge(other)

    def test_merge_is_grouping_invariant(self):
        """Any shard grouping merges to the serial result — the property
        the parallel executor's absorb path relies on."""
        results = [FakeResult(i % 8, insertion=float(i)) for i in range(12)]
        serial = TileProfiler()
        serial.begin_frame(small_config())
        for result in results:
            serial.record_tile(result)
        merged = TileProfiler()
        merged.begin_frame(small_config())
        for chunk_start in range(0, 12, 5):  # uneven shards on purpose
            shard = TileProfiler()
            shard.begin_frame(small_config())
            for result in results[chunk_start:chunk_start + 5]:
                shard.record_tile(result)
            merged.merge(shard)
        for name in GRID_NAMES:
            assert merged.grid(name) == serial.grid(name), name


class TestRoundTrip:
    def test_as_dict_from_dict_round_trips(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        profiler.record_tile(FakeResult(1), replayed=True)
        data = profiler.as_dict()
        rebuilt = TileProfiler.from_dict(data)
        assert rebuilt.as_dict() == data
        assert (rebuilt.tiles_x, rebuilt.tiles_y) == (4, 2)

    def test_as_dict_has_every_grid(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        data = profiler.as_dict()
        assert set(data) == {"tiles_x", "tiles_y", "frames", *GRID_NAMES}

    def test_from_dict_rejects_short_grid(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        data = profiler.as_dict()
        data["cycles"] = [1.0]
        with pytest.raises(ValueError, match="cycles"):
            TileProfiler.from_dict(data)

    def test_from_dict_of_empty_profiler(self):
        rebuilt = TileProfiler.from_dict(TileProfiler().as_dict())
        assert rebuilt.tile_count == 0
        assert rebuilt.frames == 0
