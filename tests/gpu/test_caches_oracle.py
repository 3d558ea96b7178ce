"""Differential tests: the LRU cache model against the numpy oracle.

``tests/gpu/lru_oracle.py`` keeps the numpy tag/stamp simulator as an
independent reference.  Every hit, miss and eviction feeds cycles and
joules, so the model must agree with it exactly: the same hit/miss
answer for every access, the same ``accesses`` and ``misses`` counters,
and the same resident lines in every set, in the same LRU order.  The
per-access miss flags ``access_many`` writes to ``out=`` must match the
oracle's access for access, and the last section checks that the suite
catches three plausible slips in the closed form.
"""

import inspect

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import repro.gpu.caches as caches
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


def make_pair(
    ways: int, sets: int, cache_class: type = Cache
) -> tuple[Cache, OracleCache]:
    config = CacheConfig("diff", LINE * ways * sets, LINE, ways)
    return cache_class(config), OracleCache(config)


def assert_same_state(fast: Cache, oracle: OracleCache) -> None:
    assert fast.accesses == oracle.accesses
    assert fast.misses == oracle.misses
    assert fast.resident_lines() == resident_lines(oracle)


def access_with_flags(cache: Cache, addresses: list[int]) -> tuple[int, list[bool]]:
    """``access_many`` with ``out=``: the misses and the per-access flags."""
    out = np.empty(len(addresses), dtype=bool)
    misses = cache.access_many(np.array(addresses, dtype=np.int64), out=out)
    assert misses == int(out.sum())
    return misses, out.tolist()


def check_stream(
    ways: int, sets: int, addresses: list[int], cuts: list[int],
    cache_class: type = Cache,
) -> None:
    """One stream three ways: per access, in chunks, and whole."""
    fast, oracle = make_pair(ways, sets, cache_class)
    fast_hits = [fast.access(a) for a in addresses]
    oracle_hits = [oracle.access(a) for a in addresses]
    assert fast_hits == oracle_hits
    assert_same_state(fast, oracle)
    sequential_state = fast.resident_lines()
    oracle_misses = [not hit for hit in oracle_hits]

    fast, oracle = make_pair(ways, sets, cache_class)
    bounds = [0, *sorted(cuts), len(addresses)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = addresses[lo:hi]
        misses, flags = access_with_flags(fast, chunk)
        assert misses == oracle.access_many(np.array(chunk, dtype=np.int64))
        assert flags == oracle_misses[lo:hi]
        assert_same_state(fast, oracle)
    assert fast.resident_lines() == sequential_state

    fast, oracle = make_pair(ways, sets, cache_class)
    misses, flags = access_with_flags(fast, addresses)
    whole = np.array(addresses, dtype=np.int64)
    assert misses == oracle.access_many(whole) == fast_hits.count(False)
    assert flags == oracle_misses
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


# -- mutants the suite must catch ------------------------------------------

def mutant(old: str, new: str) -> type:
    """``Cache`` from a copy of the production module with one edit."""
    source = inspect.getsource(caches)
    assert source.count(old) == 1, old
    namespace = {"__name__": "caches_mutant"}
    exec(compile(source.replace(old, new), "caches_mutant", "exec"), namespace)
    return namespace["Cache"]


def disagrees(cache_class: type, case) -> bool:
    try:
        check_stream(*case, cache_class=cache_class)
    except AssertionError:
        return True
    return False


@st.composite
def closed_form_streams(draw):
    ways = draw(st.sampled_from((1, 2)), label="ways")
    sets = draw(st.sampled_from(SETS), label="sets")
    span = 4 * LINE * ways * sets
    addresses = draw(
        st.lists(st.integers(0, span - 1), min_size=1, max_size=60),
        label="addresses",
    )
    cuts = draw(st.lists(st.integers(0, len(addresses)), max_size=6), label="cuts")
    return ways, sets, addresses, cuts


def caught(cache_class: type):
    """A stream the mutant gets wrong, found by hypothesis."""
    return find(
        closed_form_streams(),
        lambda case: disagrees(cache_class, case),
        settings=settings(
            max_examples=2000, database=None, derandomize=True,
            phases=[Phase.generate],
        ),
    )


def test_suite_catches_one_back_compare():
    # Adjacent collapsed accesses never share a line, so this is a
    # direct-mapped cache in disguise.
    caught(mutant(
        "hit[2:] = (kt[2:] == kt[:-2]) & (ks[2:] == ks[:-2])",
        "hit[1:] = (kt[1:] == kt[:-1]) & (ks[1:] == ks[:-1])",
    ))


def test_suite_catches_collapse_across_sets():
    # Equal tags in neighbouring sets are different lines.
    caught(mutant("        kept[1:] |= s[1:] != s[:-1]\n", ""))


def test_suite_catches_dropped_carry():
    # Without the prepend every call starts from a cold cache.
    caught(mutant(
        "carried = carried[carried >= 0]",
        "carried = carried[:0]",
    ))
