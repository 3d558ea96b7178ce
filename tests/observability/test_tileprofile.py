"""TileProfiler unit tests: grids, round-trips, guard rails."""

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
        profiler.record_tile(FakeResult(3))
        profiler.record_tile(FakeResult(3))
        # Energy is priced by the begin_frame config's RBCD model.
        tile_j = RBCDEnergyModel(small_config()).tile_breakdown(
            FakeResult(3)
        ).total_j
        assert tile_j > 0.0
        assert profiler.grid("cycles")[3] == 30.0
        assert profiler.grid("energy_j")[3] == 2 * tile_j
        assert profiler.grid("activity")[3] == 6.0
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


class TestRoundTrip:
    def test_as_dict_from_dict_round_trips(self):
        profiler = TileProfiler()
        profiler.begin_frame(small_config())
        profiler.record_tile(FakeResult(1))
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
