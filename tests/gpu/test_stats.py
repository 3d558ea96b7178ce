"""GPUStats container tests."""

import pytest

from repro.gpu.stats import GPUStats


class TestAccumulation:
    def test_addition_sums_every_field(self):
        a = GPUStats(frames=1, fragments_produced=10, gpu_cycles=100.0)
        b = GPUStats(frames=1, fragments_produced=5, gpu_cycles=50.0)
        c = a + b
        assert c.frames == 2
        assert c.fragments_produced == 15
        assert c.gpu_cycles == 150.0
        # Originals untouched.
        assert a.fragments_produced == 10

    def test_sum_builtin(self):
        stats = [GPUStats(frames=1, vertices_shaded=3)] * 4
        total = sum(stats)
        assert total.frames == 4
        assert total.vertices_shaded == 12

    def test_add_non_stats_rejected(self):
        with pytest.raises(TypeError):
            GPUStats() + 5


class TestDerived:
    def test_overflow_rate(self):
        stats = GPUStats(zeb_insertions=200, zeb_overflow_events=10)
        assert stats.zeb_overflow_rate == pytest.approx(0.05)

    def test_overflow_rate_empty(self):
        assert GPUStats().zeb_overflow_rate == 0.0

    def test_early_z_pass_rate(self):
        stats = GPUStats(early_z_tests=100, early_z_passes=80)
        assert stats.early_z_pass_rate == pytest.approx(0.8)
        assert GPUStats().early_z_pass_rate == 0.0

    def test_as_dict_roundtrip(self):
        stats = GPUStats(fragments_produced=7)
        d = stats.as_dict()
        assert d["fragments_produced"] == 7
        assert "gpu_cycles" in d

    def test_summary_shows_nonzero_fields_only(self):
        stats = GPUStats(fragments_produced=7)
        text = stats.summary()
        assert "fragments_produced" in text
        assert "texture_accesses" not in text

