"""CounterRegistry / CounterSpec / CounterAlgebra unit tests."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.observability.counters import (
    CounterAlgebra,
    CounterRegistry,
    CounterSpec,
    registry_from_counters,
)


@dataclass
class _Demo(CounterAlgebra):
    events: int = 0
    cost_cycles: float = 0.0


class TestCounterAlgebraMixin:
    def test_sum_and_radd(self):
        parts = [_Demo(events=i, cost_cycles=i / 2) for i in range(1, 4)]
        assert sum(parts) == _Demo(events=6, cost_cycles=3.0)
        assert _Demo.sum([]).events == 0
        with pytest.raises(TypeError):
            1 + _Demo()
        with pytest.raises(TypeError):
            _Demo() + object()

    def test_as_dict(self):
        assert _Demo(events=2).as_dict() == {"events": 2, "cost_cycles": 0.0}


class TestCounterSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            CounterSpec("x", kind="complex")
        with pytest.raises(ValueError):
            CounterSpec("")

    def test_int_coercion_accepts_numpy_rejects_bool_and_float(self):
        spec = CounterSpec("n")
        assert spec.coerce(np.int64(5)) == 5
        assert isinstance(spec.coerce(np.int64(5)), int)
        with pytest.raises(TypeError):
            spec.coerce(True)
        with pytest.raises(TypeError):
            spec.coerce(2.5)

    def test_float_coercion(self):
        spec = CounterSpec("c", kind="float", unit="cycles")
        assert spec.coerce(3) == 3.0
        assert isinstance(spec.coerce(np.float64(1.5)), float)
        with pytest.raises(TypeError):
            spec.coerce(True)
        with pytest.raises(TypeError):
            spec.coerce("12")


class TestCounterRegistry:
    def test_register_add_set_get(self):
        registry = CounterRegistry()
        registry.counter("gpu.raster.fragments_produced")
        registry.add("gpu.raster.fragments_produced", 10)
        registry.add("gpu.raster.fragments_produced")
        assert registry["gpu.raster.fragments_produced"] == 11
        registry.set("gpu.raster.fragments_produced", 3)
        assert registry["gpu.raster.fragments_produced"] == 3
        assert "gpu.raster.fragments_produced" in registry
        assert len(registry) == 1

    def test_unregistered_access_raises(self):
        registry = CounterRegistry()
        with pytest.raises(KeyError):
            registry.add("nope")
        with pytest.raises(KeyError):
            registry.set("nope", 1)

    def test_idempotent_registration_conflict_detection(self):
        registry = CounterRegistry()
        registry.counter("a.b", kind="int")
        registry.counter("a.b", kind="int")  # identical: fine
        with pytest.raises(ValueError, match="different"):
            registry.counter("a.b", kind="float")

    def test_merge_sums_shared_and_unions_disjoint(self):
        a = CounterRegistry()
        a.counter("shared")
        a.set("shared", 2)
        a.counter("only_a")
        a.set("only_a", 1)
        b = CounterRegistry()
        b.counter("shared")
        b.set("shared", 5)
        b.counter("only_b", kind="float", unit="cycles")
        b.set("only_b", 1.5)
        merged = a + b
        assert merged.as_dict() == {"shared": 7, "only_a": 1, "only_b": 1.5}
        # Registration order: left operand's names first.
        assert merged.names() == ["shared", "only_a", "only_b"]
        assert merged.spec("only_b").unit == "cycles"

    def test_merge_conflicting_specs_raises(self):
        a = CounterRegistry()
        a.counter("x", kind="int")
        b = CounterRegistry()
        b.counter("x", kind="float")
        with pytest.raises(ValueError):
            a + b

    def test_sum_and_equality(self):
        def make(n):
            registry = CounterRegistry()
            registry.counter("v")
            registry.set("v", n)
            return registry

        total = CounterRegistry.sum([make(1), make(2), make(3)])
        assert total["v"] == 6
        assert total == make(6)
        assert total != make(5)
        assert sum([make(1), make(2)], 0)["v"] == 3

    def test_nonzero_filter(self):
        registry = CounterRegistry()
        registry.counter("zero")
        registry.counter("live")
        registry.add("live", 4)
        assert registry.nonzero() == {"live": 4}


class TestRegistryFromCounters:
    def test_field_names_kinds_units(self):
        demo = _Demo(events=3, cost_cycles=1.5)
        registry = registry_from_counters(demo, "demo")
        assert registry.as_dict() == {
            "demo.events": 3, "demo.cost_cycles": 1.5,
        }
        assert registry.spec("demo.events").kind == "int"
        assert registry.spec("demo.cost_cycles").kind == "float"
        assert registry.spec("demo.cost_cycles").unit == "cycles"

    def test_unit_override(self):
        registry = registry_from_counters(
            _Demo(), "demo", units={"events": "ops"}
        )
        assert registry.spec("demo.events").unit == "ops"


class TestDataclassRegistryViews:
    def test_gpu_stats_registry_roundtrip(self):
        from repro.gpu.stats import GPUStats

        stats = GPUStats(fragments_produced=7, geometry_cycles=12.0)
        registry = stats.registry()
        assert registry["gpu.raster.fragments_produced"] == 7
        assert registry["gpu.geometry.geometry_cycles"] == 12.0
        assert registry.spec("gpu.geometry.geometry_cycles").unit == "cycles"
        # Every dataclass field appears exactly once in the namespace.
        assert len(registry) == len(stats.as_dict())

    def test_op_counter_registry_units(self):
        from repro.physics.counters import OpCounter

        ops = OpCounter()
        ops.add("flop", 10)
        registry = ops.registry()
        assert registry["cpu.ops.flop"] == 10
        assert registry.spec("cpu.ops.flop").unit == "ops"
