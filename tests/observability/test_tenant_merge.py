"""Property suite: per-tenant telemetry shards merge exactly.

The serving frontend's global registry is ``CounterRegistry.sum`` over
per-tenant shards, and its claim — proven here with hypothesis — is
that the merge is an exact algebra: associative, commutative, with the
empty registry as identity, so *any* interleave the cross-tenant
batching produces reconstructs the same global registry bit for bit.

Counter values are drawn as integers and dyadic rationals (multiples
of 1/256 with bounded magnitude): every value, partial sum and total
is exactly representable in a float, so float addition incurs no
rounding and the algebraic laws hold bitwise.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.counters import CounterRegistry, CounterSpec

# A small shared name pool so shards overlap (the interesting case:
# merging must sum shared names and union disjoint ones).
_NAMES = ("gpu.cycles", "rbcd.insertions", "energy.j", "serve.frames")
_KINDS = {"gpu.cycles": "float", "rbcd.insertions": "int",
          "energy.j": "float", "serve.frames": "int"}


def _dyadic(draw_int: int) -> float:
    """Map an int to an exactly-representable float (multiples of 2^-8)."""
    return draw_int / 256.0


@st.composite
def registries(draw):
    registry = CounterRegistry()
    for name in draw(st.sets(st.sampled_from(_NAMES), min_size=1)):
        kind = _KINDS[name]
        registry.register(CounterSpec(name, kind=kind))
        if kind == "int":
            registry.set(name, draw(st.integers(0, 2**40)))
        else:
            registry.set(
                name, _dyadic(draw(st.integers(0, 2**40)))
            )
    return registry


class TestRegistryMergeAlgebra:
    @given(registries(), registries())
    def test_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(registries(), registries(), registries())
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(registries())
    def test_empty_is_identity(self, a):
        empty = CounterRegistry()
        assert a.merge(empty) == a
        assert empty.merge(a) == a

    @settings(max_examples=25)
    @given(st.lists(registries(), min_size=1, max_size=4))
    def test_any_merge_order_reproduces_the_global_registry(self, shards):
        """The tenant-isolation law: however the batching interleaved
        the shards, summing them in any order is the same registry."""
        reference = CounterRegistry.sum(shards)
        for permutation in itertools.permutations(shards):
            assert CounterRegistry.sum(permutation) == reference
            assert (
                CounterRegistry.sum(permutation).as_dict()
                == reference.as_dict()
            )


class TestLiveMonitorShardMerge:
    """Tenant isolation at the LiveMonitor level, with synthetic frames."""

    class _Stats:
        def __init__(self, seed: int) -> None:
            self.gpu_cycles = float(1000 + seed)
            self.rbcd_cycles = float(seed % 7)
            self.zeb_insertions = seed % 11
            self.zeb_overflow_events = seed % 3
            self.ff_stack_overflows = seed % 2
            self.zeb_lists_analyzed = 1 + seed % 5
            self.collision_pairs_emitted = seed % 4

        def registry(self):
            registry = CounterRegistry()
            registry.counter("gpu.gpu_cycles", kind="float", unit="cycles")
            registry.set("gpu.gpu_cycles", self.gpu_cycles)
            registry.counter("gpu.rbcd.zeb_insertions")
            registry.set("gpu.rbcd.zeb_insertions", self.zeb_insertions)
            return registry

    class _Energy:
        def __init__(self, seed: int) -> None:
            self.total_j = (seed % 16) / 256.0
            self.delay_s = (1 + seed % 8) / 256.0

        def registry(self):
            registry = CounterRegistry()
            registry.counter("energy.total_j", kind="float", unit="J")
            registry.set("energy.total_j", self.total_j)
            return registry

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.lists(st.integers(0, 255), min_size=1, max_size=6),
        min_size=1, max_size=4,
    ))
    def test_shard_totals_sum_to_the_global_monitor(self, tenant_seeds):
        from repro.observability.live import LiveMonitor, default_rules

        shards = []
        global_monitor = LiveMonitor(rules=default_rules(
            max_activity_ratio=None, max_overflow_rate=None,
            max_ffstack_overflow_rate=None, max_joules_per_frame=None,
        ))
        for seeds in tenant_seeds:
            monitor = LiveMonitor(rules=[])
            for seed in seeds:
                monitor.observe_frame(self._Stats(seed), self._Energy(seed))
                global_monitor.observe_frame(
                    self._Stats(seed), self._Energy(seed)
                )
            shards.append(monitor.totals_registry())
        reference = global_monitor.totals_registry()
        for permutation in itertools.permutations(shards):
            merged = CounterRegistry.sum(permutation)
            assert merged == reference
            assert merged.as_dict() == reference.as_dict()
