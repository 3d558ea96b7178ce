"""GPUConfig / RBCDConfig tests."""

import math
import numbers

import numpy as np
import pytest

from repro.gpu.config import CacheConfig, GPUConfig, QueueConfig, RBCDConfig


class TestGPUConfig:
    def test_table2_defaults(self):
        cfg = GPUConfig()
        assert cfg.frequency_hz == 400e6
        assert cfg.screen_width == 800 and cfg.screen_height == 480
        assert cfg.tile_size == 16
        assert cfg.num_fragment_processors == 4
        assert cfg.rasterizer_frags_per_cycle == 4.0
        assert cfg.l2_cache.size_bytes == 128 * 1024

    def test_tile_grid(self):
        cfg = GPUConfig()
        assert cfg.tiles_x == 50
        assert cfg.tiles_y == 30
        assert cfg.tile_count == 1500
        assert cfg.tile_pixels == 256

    def test_tile_grid_rounds_up(self):
        cfg = GPUConfig().with_screen(17, 33)
        assert cfg.tiles_x == 2
        assert cfg.tiles_y == 3

    def test_cycles_to_seconds(self):
        assert GPUConfig().cycles_to_seconds(400e6) == pytest.approx(1.0)

    def test_with_rbcd_replaces_only_rbcd(self):
        cfg = GPUConfig().with_rbcd(zeb_count=1, list_length=4)
        assert cfg.rbcd.zeb_count == 1
        assert cfg.rbcd.list_length == 4
        assert cfg.screen_width == 800

    def test_invalid_screen(self):
        with pytest.raises(ValueError):
            GPUConfig().with_screen(0, 480)

    @pytest.mark.parametrize(
        "width,height,tile_size",
        [
            (160.5, 96, 16),   # a float width reached tiling, then failed
            (16.5, 16, 16),    # tiles_x came out as 2.0
            (160, 96.0, 16),   # integral, but still a float
            (True, 16, 16),    # a bool is an int subclass
            (160, False, 16),
            (160, 96, 16.0),
            (160, 96, True),
            (160, 96, np.bool_(True)),
            ("160", 96, 16),
        ],
    )
    def test_non_integral_screen_or_tile_rejected(self, width, height, tile_size):
        with pytest.raises(ValueError, match="must be an integer"):
            GPUConfig(
                screen_width=width, screen_height=height, tile_size=tile_size
            )

    def test_with_screen_rejects_a_float(self):
        with pytest.raises(ValueError, match="screen_width must be an integer"):
            GPUConfig().with_screen(160.5, 96)

    def test_numpy_integer_screen_and_tile_accepted(self):
        cfg = GPUConfig(
            screen_width=np.int64(17), screen_height=np.int32(33),
            tile_size=np.int16(16),
        )
        assert (cfg.tiles_x, cfg.tiles_y) == (2, 3)
        assert isinstance(cfg.tiles_x, numbers.Integral)

    def test_mem_latency_avg(self):
        assert GPUConfig().mem_latency_avg_cycles == pytest.approx(75.0)

    def test_tile_cache_shim_is_fixed_off(self):
        # The benchmark harness pins these two members; neither can
        # switch anything on, and neither is a constructor field.
        cfg = GPUConfig()
        assert cfg.tile_cache_enabled is False
        assert cfg.with_tile_cache(False) is cfg
        with pytest.raises(ValueError, match="tile cache"):
            cfg.with_tile_cache(True)
        with pytest.raises(TypeError):
            GPUConfig(tile_cache_enabled=True)

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("frequency_hz", 0),
            ("frequency_hz", math.inf),
            ("num_fragment_processors", 0),
            ("num_vertex_processors", 0),
            ("primitive_assembly_tris_per_cycle", 0),
            ("rasterizer_frags_per_cycle", 0),
            ("rasterizer_frags_per_cycle", math.nan),
            ("mem_bandwidth_bytes_per_cycle", -4.0),
        ],
    )
    def test_rates_counts_and_clock_must_be_positive(self, field_name, value):
        with pytest.raises(ValueError, match=f"^{field_name} must be positive"):
            GPUConfig(**{field_name: value})

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("cycles_per_vertex", math.nan),
            ("cycles_per_fragment", -4),
            ("raster_setup_cycles_per_tri", math.inf),
            ("binning_cycles_per_prim_tile", -1.0),
        ],
    )
    def test_per_unit_costs_must_be_finite_and_non_negative(
        self, field_name, value
    ):
        with pytest.raises(ValueError, match=f"^{field_name} must be finite"):
            GPUConfig(**{field_name: value})

    def test_zero_per_unit_cost_accepted(self):
        assert GPUConfig(cycles_per_fragment=0.0).cycles_per_fragment == 0.0


class TestRBCDConfig:
    def test_zeb_size_matches_paper(self):
        # "For M=8 the size of the ZEB would be 8 KB" (256 lists x 8 x 32b).
        cfg = RBCDConfig()
        assert cfg.zeb_size_bytes(256) == 8 * 1024

    def test_packing_must_fill_element(self):
        with pytest.raises(ValueError):
            RBCDConfig(z_bits=20, id_bits=13)  # 20+13+1 != 32

    def test_zeb_count_validation(self):
        with pytest.raises(ValueError):
            RBCDConfig(zeb_count=0)

    def test_list_length_validation(self):
        with pytest.raises(ValueError):
            RBCDConfig(list_length=0)

    def test_ff_stack_validation(self):
        with pytest.raises(ValueError):
            RBCDConfig(ff_stack_entries=0)

    def test_negative_spares_rejected(self):
        with pytest.raises(ValueError, match="spare_entries_per_tile"):
            GPUConfig().with_rbcd(spare_entries_per_tile=-50)


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig("t", 4 * 1024, 64, 2)
        assert cache.num_sets == 32

    def test_size_divisibility(self):
        with pytest.raises(ValueError):
            CacheConfig("t", 1000, 64, 2)

    @pytest.mark.parametrize(
        "size_bytes,line_bytes,ways,field_name",
        [
            (0, 64, 2, "size_bytes"),
            (-128, 64, 2, "size_bytes"),
            (4096, 0, 2, "line_bytes"),
            (4096, -64, 2, "line_bytes"),
            (4096, 64, 0, "ways"),
            (4096, 64, -2, "ways"),
        ],
    )
    def test_non_positive_geometry_rejected(self, size_bytes, line_bytes, ways, field_name):
        with pytest.raises(ValueError, match=f"vcache: {field_name} must be positive"):
            CacheConfig("vcache", size_bytes, line_bytes, ways)

    def test_queue_config_fields(self):
        q = QueueConfig("fragment", 64, 233)
        assert q.entries == 64 and q.bytes_per_entry == 233
