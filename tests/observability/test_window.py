"""Streaming aggregation primitives: windows, EWMA, quantile sketch.

The quantile-sketch accuracy test checks the DDSketch relative-error
bound on a non-trivial sample set.
"""

import math
import random

import pytest

from repro.observability.window import (
    Ewma,
    QuantileSketch,
    SlidingWindow,
)


class TestSlidingWindow:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_empty_statistics_are_zero(self):
        w = SlidingWindow(4)
        assert len(w) == 0
        assert not w.full
        assert w.sum() == 0.0
        assert w.mean() == 0.0
        assert w.min() == 0.0
        assert w.max() == 0.0
        assert w.last() == 0.0

    def test_statistics_over_partial_window(self):
        w = SlidingWindow(4)
        for v in (1.0, 2.0, 3.0):
            w.push(v)
        assert len(w) == 3 and not w.full
        assert w.sum() == 6.0
        assert w.mean() == 2.0
        assert (w.min(), w.max(), w.last()) == (1.0, 3.0, 3.0)

    def test_eviction_keeps_only_newest(self):
        w = SlidingWindow(3)
        for v in (10.0, 20.0, 30.0, 40.0):
            w.push(v)
        assert w.full
        assert w.values() == [20.0, 30.0, 40.0]
        assert w.sum() == 90.0
        assert w.min() == 20.0

    def test_repr_mentions_fill_level(self):
        w = SlidingWindow(5)
        w.push(2.0)
        assert "1/5" in repr(w)


class TestEwma:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)

    def test_seeded_by_first_sample(self):
        e = Ewma(0.5)
        assert not e.initialized
        assert e.value == 0.0
        assert e.update(10.0) == 10.0
        assert e.initialized

    def test_converges_toward_stream(self):
        e = Ewma(0.5)
        e.update(0.0)
        for _ in range(20):
            e.update(100.0)
        assert e.value == pytest.approx(100.0, abs=1e-3)

    def test_alpha_one_tracks_last_sample(self):
        e = Ewma(1.0)
        e.update(3.0)
        e.update(7.0)
        assert e.value == 7.0


class TestQuantileSketch:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(zero_threshold=-1.0)

    def test_rejects_bad_samples(self):
        s = QuantileSketch()
        with pytest.raises(ValueError):
            s.add(-1.0)
        with pytest.raises(ValueError):
            s.add(float("nan"))
        with pytest.raises(ValueError):
            s.add(float("inf"))
        with pytest.raises(ValueError):
            s.add(1.0, count=0)

    def test_empty_sketch(self):
        s = QuantileSketch()
        assert s.quantile(0.5) is None
        assert s.min == 0.0 and s.max == 0.0
        with pytest.raises(ValueError):
            s.quantile(1.5)

    def test_zero_bucket_is_exact(self):
        s = QuantileSketch()
        for _ in range(10):
            s.add(0.0)
        s.add(100.0)
        assert s.quantile(0.5) == 0.0
        assert s.count == 11

    def test_relative_accuracy_bound(self):
        accuracy = 0.01
        s = QuantileSketch(relative_accuracy=accuracy)
        rng = random.Random(42)
        samples = sorted(rng.lognormvariate(0.0, 2.0) for _ in range(5000))
        for v in samples:
            s.add(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            true = samples[max(0, math.ceil(q * len(samples)) - 1)]
            got = s.quantile(q)
            assert got == pytest.approx(true, rel=2 * accuracy), q

    def test_weighted_add(self):
        s = QuantileSketch()
        s.add(10.0, count=99)
        s.add(1000.0, count=1)
        assert s.quantile(0.5) == pytest.approx(10.0, rel=0.03)
        assert s.count == 100

    def test_as_dict_round_trips_buckets_as_strings(self):
        s = QuantileSketch()
        s.add(1.0)
        s.add(2.5)
        d = s.as_dict()
        assert d["count"] == 2
        assert all(isinstance(k, str) for k in d["buckets"])
        assert sum(d["buckets"].values()) == 2
