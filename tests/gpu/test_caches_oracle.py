"""Differential tests: the LRU cache model against the numpy oracle.

``tests/gpu/lru_oracle.py`` keeps the numpy tag/stamp simulator as an
independent reference.  Every hit, miss and eviction feeds cycles and
joules, so the model must agree with it exactly: the same hit/miss
answer for every access, the same ``accesses`` and ``misses`` counters,
and the same resident lines in every set, in the same LRU order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.caches import Cache
from repro.gpu.config import CacheConfig
from tests.gpu.lru_oracle import Cache as OracleCache, resident_lines

LINE = 64
WAYS = (1, 2, 4, 8)
SETS = (1, 4, 16)
GEOMETRIES = pytest.mark.parametrize(
    "ways,sets",
    [(w, s) for w in WAYS for s in SETS],
    ids=[f"ways{w}-sets{s}" for w in WAYS for s in SETS],
)
EXAMPLES = settings(max_examples=15, deadline=None)
# Four times the largest cache's lines, so every geometry sees evictions.
MAX_LINES = 4 * max(WAYS) * max(SETS)


def make_pair(ways: int, sets: int) -> tuple[Cache, OracleCache]:
    config = CacheConfig("diff", LINE * ways * sets, LINE, ways)
    return Cache(config), OracleCache(config)


def assert_same_state(fast: Cache, oracle: OracleCache) -> None:
    assert fast.accesses == oracle.accesses
    assert fast.misses == oracle.misses
    assert fast._sets == resident_lines(oracle)


def check_stream(ways: int, sets: int, addresses: list[int], cuts: list[int]) -> None:
    """One stream three ways: per access, in chunks, and whole."""
    fast, oracle = make_pair(ways, sets)
    fast_hits = [fast.access(a) for a in addresses]
    oracle_hits = [oracle.access(a) for a in addresses]
    assert fast_hits == oracle_hits
    assert_same_state(fast, oracle)
    sequential_state = [list(lines) for lines in fast._sets]

    fast, oracle = make_pair(ways, sets)
    bounds = [0, *sorted(cuts), len(addresses)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = np.array(addresses[lo:hi], dtype=np.int64)
        assert fast.access_many(chunk) == oracle.access_many(chunk)
        assert_same_state(fast, oracle)
    assert fast._sets == sequential_state

    fast, oracle = make_pair(ways, sets)
    whole = np.array(addresses, dtype=np.int64)
    misses = fast.access_many(whole)
    assert misses == oracle.access_many(whole) == fast_hits.count(False)
    assert_same_state(fast, oracle)


def cuts_for(data, addresses: list[int]) -> list[int]:
    return data.draw(
        st.lists(st.integers(0, len(addresses)), max_size=6), label="cuts"
    )


@GEOMETRIES
@EXAMPLES
@given(data=st.data())
def test_random_addresses(ways, sets, data):
    # Span four times the capacity so sets fill, conflict and evict.
    span = 4 * LINE * ways * sets
    addresses = data.draw(
        st.lists(st.integers(0, span - 1), min_size=1, max_size=150),
        label="addresses",
    )
    check_stream(ways, sets, addresses, cuts_for(data, addresses))


@GEOMETRIES
@EXAMPLES
@given(
    data=st.data(),
    start=st.integers(0, 1 << 20),
    stride=st.sampled_from((4, 16, 64, 96, 128)),
    count=st.integers(1, 200),
)
def test_streaming_addresses(ways, sets, data, start, stride, count):
    addresses = list(range(start, start + stride * count, stride))
    check_stream(ways, sets, addresses, cuts_for(data, addresses))


@GEOMETRIES
@EXAMPLES
@given(
    data=st.data(),
    set_idx=st.integers(0, 15),
    rounds=st.integers(1, 6),
    offset=st.integers(0, LINE - 1),
)
def test_adversarial_conflict_cycle(ways, sets, data, set_idx, rounds, offset):
    # ways+1 lines of one set, touched round-robin: LRU misses on every one.
    conflicting = [(set_idx % sets + k * sets) * LINE + offset for k in range(ways + 1)]
    addresses = conflicting * rounds
    check_stream(ways, sets, addresses, cuts_for(data, addresses))
    fast, _ = make_pair(ways, sets)
    assert fast.access_many(np.array(addresses)) == len(addresses)


@GEOMETRIES
@EXAMPLES
@given(
    data=st.data(),
    runs=st.lists(
        st.tuples(st.integers(0, MAX_LINES - 1), st.integers(1, 12)),
        min_size=1,
        max_size=25,
    ),
)
def test_same_line_runs(ways, sets, data, runs):
    addresses = []
    for line, length in runs:
        # Byte offsets inside one line, so each run collapses to one access.
        addresses.extend(line * LINE + (7 * i) % LINE for i in range(length))
    check_stream(ways, sets, addresses, cuts_for(data, addresses))


_ADDRESS = st.integers(0, MAX_LINES * LINE - 1)
_OPS = st.one_of(
    st.tuples(st.just("access"), _ADDRESS),
    st.tuples(st.just("access_line"), st.integers(0, MAX_LINES - 1)),
    st.tuples(st.just("access_range"), _ADDRESS, st.integers(-8, 6 * LINE)),
    st.tuples(st.just("access_many"), st.lists(_ADDRESS, max_size=40)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("reset_stats")),
)


@GEOMETRIES
@EXAMPLES
@given(ops=st.lists(_OPS, min_size=1, max_size=40))
def test_mixed_calls(ways, sets, ops):
    fast, oracle = make_pair(ways, sets)
    for name, *args in ops:
        if name == "access_many":
            args = [np.array(args[0], dtype=np.int64)]
        assert getattr(fast, name)(*args) == getattr(oracle, name)(*args), name
        assert_same_state(fast, oracle)
        assert fast.hits == oracle.hits
        assert fast.miss_rate == oracle.miss_rate


@GEOMETRIES
def test_long_mixed_locality_stream(ways, sets):
    # Hot lines, a sweep and random far lines interleaved: a few thousand
    # accesses per geometry, beyond what the hypothesis streams reach.
    rng = np.random.default_rng(ways * 100 + sets)
    hot = rng.integers(0, 2 * ways * sets, size=3000) * LINE
    sweep = np.arange(3000) * 24
    far = rng.integers(0, 1 << 24, size=3000)
    pick = rng.integers(0, 3, size=3000)
    addresses = np.choose(pick, [hot, sweep, far]).tolist()
    check_stream(ways, sets, addresses, [750, 1500, 2250])
