"""GPUConfig / RBCDConfig tests."""

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

    def test_mem_latency_avg(self):
        assert GPUConfig().mem_latency_avg_cycles == pytest.approx(75.0)


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
