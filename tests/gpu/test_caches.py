"""Set-associative LRU cache model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.caches import Cache
from repro.gpu.config import CacheConfig


def small_cache(ways: int = 2, sets: int = 4, line: int = 64) -> Cache:
    return Cache(CacheConfig("test", line * ways * sets, line, ways))


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(63) is True   # same line
        assert cache.access(64) is False  # next line

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)
        assert cache.hits == 1

    def test_reset_stats_keeps_contents(self):
        cache = small_cache()
        cache.access(0)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.access(0) is True  # line still resident

    def test_flush_evicts(self):
        cache = small_cache()
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_empty_miss_rate_zero(self):
        assert small_cache().miss_rate == 0.0


class TestAssociativityAndLRU:
    def test_two_way_holds_two_conflicting_lines(self):
        cache = small_cache(ways=2, sets=4)
        # Lines 0 and 4 map to the same set (4 sets).
        cache.access_line(0)
        cache.access_line(4)
        assert cache.access_line(0) is True
        assert cache.access_line(4) is True

    def test_lru_evicts_least_recent(self):
        cache = small_cache(ways=2, sets=4)
        cache.access_line(0)
        cache.access_line(4)
        cache.access_line(0)      # 0 now MRU
        cache.access_line(8)      # evicts 4
        assert cache.access_line(0) is True
        assert cache.access_line(4) is False

    def test_direct_mapped_conflicts(self):
        cache = small_cache(ways=1, sets=4)
        cache.access_line(0)
        cache.access_line(4)      # evicts 0
        assert cache.access_line(0) is False


class TestBatchAccess:
    def test_access_range_counts_lines(self):
        cache = small_cache(sets=64)
        misses = cache.access_range(0, 256)  # 4 lines
        assert misses == 4
        assert cache.access_range(0, 256) == 0

    def test_access_range_empty(self):
        assert small_cache().access_range(0, 0) == 0

    def test_access_many_matches_sequential(self):
        rng = np.random.RandomState(0)
        addresses = rng.randint(0, 8 * 1024, size=500)
        a = small_cache(ways=2, sets=8)
        b = small_cache(ways=2, sets=8)
        batch_misses = a.access_many(addresses)
        seq_misses = sum(0 if b.access(int(addr)) else 1 for addr in addresses)
        assert batch_misses == seq_misses
        assert a.accesses == b.accesses == 500

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=120))
    def test_access_many_equivalence_property(self, addresses):
        a = small_cache(ways=2, sets=4)
        b = small_cache(ways=2, sets=4)
        batch = a.access_many(np.array(addresses))
        seq = sum(0 if b.access(addr) else 1 for addr in addresses)
        assert batch == seq

    def test_streaming_pattern_one_miss_per_line(self):
        cache = small_cache(sets=64)
        addresses = np.arange(0, 64 * 16, 4)  # sequential words
        misses = cache.access_many(addresses)
        assert misses == 16


class TestNegativeAddresses:
    # A negative address names no line; before validation, line -1
    # matched the oracle's invalid-tag sentinel and hit in a cold cache.
    def cold_cache(self) -> Cache:
        return Cache(CacheConfig("t", 512, 64, 2))

    def test_access_rejects_negative_address(self):
        cache = self.cold_cache()
        with pytest.raises(ValueError, match="non-negative"):
            cache.access(-1)
        assert cache.accesses == 0

    def test_access_many_rejects_negative_address(self):
        cache = self.cold_cache()
        with pytest.raises(ValueError, match="non-negative"):
            cache.access_many(np.array([-1, -5]))
        with pytest.raises(ValueError, match="non-negative"):
            cache.access_many(np.array([0, 64, -64]))
        assert cache.accesses == cache.misses == 0

    def test_access_line_rejects_negative_line(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.cold_cache().access_line(-1)

    def test_access_range_rejects_negative_address(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.cold_cache().access_range(-64, 128)
        with pytest.raises(ValueError, match="non-negative"):
            self.cold_cache().access_range(-64, 0)


class TestMalformedInput:
    # Floats used to be truncated to lines silently, and a 2-D array
    # failed inside numpy with a broadcasting error.
    def test_access_many_rejects_float_addresses(self):
        cache = small_cache()
        with pytest.raises(ValueError, match="integers.*float64"):
            cache.access_many(np.array([63.9, 64.2]))
        assert cache.accesses == 0

    def test_access_many_rejects_non_1d_addresses(self):
        cache = small_cache()
        with pytest.raises(ValueError, match="1-D.*\\(2, 2\\)"):
            cache.access_many(np.array([[0, 64], [128, 192]]))
        with pytest.raises(ValueError, match="1-D"):
            cache.access_many(np.int64(64))
        assert cache.accesses == 0

    def test_access_many_accepts_empty_and_unsigned(self):
        cache = small_cache()
        assert cache.access_many([]) == 0
        assert cache.access_many(np.array([0, 64, 0], dtype=np.uint32)) == 2
        assert cache.accesses == 3

    def test_access_many_rejects_out_of_wrong_shape(self):
        cache = small_cache()
        with pytest.raises(ValueError, match="out must be a bool array of shape \\(3,\\)"):
            cache.access_many(np.array([0, 64, 128]), out=np.empty(2, dtype=bool))
        assert cache.accesses == 0

    def test_access_many_rejects_out_of_wrong_dtype(self):
        cache = small_cache()
        with pytest.raises(ValueError, match="out must be a bool array.*int64"):
            cache.access_many(np.array([0, 64]), out=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="out must be a bool array.*list"):
            cache.access_many(np.array([0, 64]), out=[False, False])
        assert cache.accesses == 0

    def test_out_receives_per_access_miss_flags(self):
        cache = small_cache(ways=2, sets=4)
        out = np.ones(5, dtype=bool)
        # Lines 0, 4, 0, 8, 4 all map to set 0: miss, miss, hit, miss, miss.
        misses = cache.access_many(np.array([0, 256, 0, 512, 256]), out=out)
        assert out.tolist() == [True, True, False, True, True]
        assert misses == 4
