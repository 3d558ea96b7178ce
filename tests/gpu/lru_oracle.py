"""Reference LRU cache model: the numpy tag/stamp simulator.

A second, independent implementation of ``repro.gpu.caches.Cache``,
kept as a test oracle.  Each set holds a row of tags (-1 = invalid) and
a row of last-use stamps; a miss replaces the way with the smallest
stamp, which is an invalid way while one is left and the least recently
used line afterwards.  ``tests/gpu/test_caches_oracle.py`` holds the
production class to it access for access.

Known defect kept on purpose: line -1 equals the invalid-tag sentinel,
so a negative address can "hit" in a cold cache.  The production class
rejects negative addresses, and the differential suite only feeds
non-negative ones.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import CacheConfig


class Cache:
    """Set-associative LRU cache over 64-bit byte addresses.

    The implementation keeps per-set tag arrays and an LRU counter; it
    is deliberately simple (one access at a time) because the hot path
    batches accesses with :meth:`access_many`, which deduplicates
    consecutive same-line accesses first.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets = config.num_sets
        self._ways = config.ways
        # tags[set][way]; -1 = invalid
        self._tags = np.full((self._sets, self._ways), -1, dtype=np.int64)
        # Higher stamp = more recently used.
        self._stamps = np.zeros((self._sets, self._ways), dtype=np.int64)
        self._clock = 0
        self.accesses = 0
        self.misses = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines (between frames, if desired)."""
        self._tags.fill(-1)
        self._stamps.fill(0)
        self._clock = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def _line_of(self, address: int) -> int:
        return address // self.config.line_bytes

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        return self.access_line(self._line_of(address))

    def access_line(self, line: int) -> bool:
        """Touch one line number; returns True on hit."""
        self.accesses += 1
        self._clock += 1
        set_idx = line % self._sets
        tags = self._tags[set_idx]
        hit_ways = np.nonzero(tags == line)[0]
        if hit_ways.size:
            self._stamps[set_idx, hit_ways[0]] = self._clock
            return True
        self.misses += 1
        victim = int(self._stamps[set_idx].argmin())
        self._tags[set_idx, victim] = line
        self._stamps[set_idx, victim] = self._clock
        return False

    def access_range(self, address: int, length: int) -> int:
        """Touch every line of ``[address, address+length)``; returns misses."""
        if length <= 0:
            return 0
        first = self._line_of(address)
        last = self._line_of(address + length - 1)
        before = self.misses
        for line in range(first, last + 1):
            self.access_line(line)
        return self.misses - before

    def access_many(self, addresses: np.ndarray) -> int:
        """Touch a sequence of byte addresses in order; returns misses.

        Consecutive accesses to the same line are collapsed to one
        (they would all hit anyway), which keeps the Python loop short
        for streaming patterns.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.size == 0:
            return 0
        lines = addrs // self.config.line_bytes
        keep = np.ones(lines.size, dtype=bool)
        keep[1:] = lines[1:] != lines[:-1]
        collapsed = lines[keep]
        repeats = np.diff(np.append(np.nonzero(keep)[0], lines.size))
        before_miss = self.misses
        before_acc = self.accesses
        for line in collapsed:
            self.access_line(int(line))
        # The collapsed duplicates still count as (hit) accesses.
        extra = int(lines.size - collapsed.size)
        self.accesses += extra
        del before_acc, repeats
        return self.misses - before_miss


def resident_lines(cache: Cache) -> list[list[int]]:
    """Valid lines of every set, most recently used first."""
    out = []
    for tags, stamps in zip(cache._tags, cache._stamps):
        order = np.argsort(-stamps, kind="stable")
        out.append([int(tags[w]) for w in order if tags[w] != -1])
    return out
