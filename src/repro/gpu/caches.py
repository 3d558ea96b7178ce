"""Functional set-associative cache model with exact LRU replacement.

Used for the vertex cache and the tile cache, whose hit/miss behaviour
feeds the activity factors of Figure 11 (tile-cache loads and misses)
and the energy model.  Addresses are synthetic byte addresses assigned
by the producing stage (e.g. polygon-list record offsets).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import CacheConfig


def _check_address(address: int) -> None:
    if address < 0:
        raise ValueError(f"cache address must be non-negative, got {address}")


class Cache:
    """Set-associative LRU cache over non-negative byte addresses.

    Each set is a plain list of its resident line numbers, most recently
    used first and at most ``ways`` long.  A hit moves the line to the
    front; a miss drops the last (least recently used) line when the set
    is full and puts the new line at the front.  :meth:`access_many` is
    the hot path: it maps addresses to lines with numpy, collapses runs
    of the same line (all but the first would hit) and walks the rest
    in one Python loop.  The single-access methods go through it too, so
    there is one replacement path.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._ways = config.ways
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.accesses = 0
        self.misses = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines (between frames, if desired)."""
        for lines in self._sets:
            lines.clear()

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        return self.access_many(np.array([address])) == 0

    def access_line(self, line: int) -> bool:
        """Touch one line number; returns True on hit."""
        return self.access(line * self.config.line_bytes)

    def access_range(self, address: int, length: int) -> int:
        """Touch every line of ``[address, address+length)``; returns misses."""
        _check_address(address)
        if length <= 0:
            return 0
        line_bytes = self.config.line_bytes
        first = address // line_bytes
        last = (address + length - 1) // line_bytes
        return self.access_many(np.arange(first, last + 1) * line_bytes)

    def access_many(self, addresses: np.ndarray) -> int:
        """Touch a sequence of byte addresses in order; returns misses.

        Consecutive accesses to the same line are collapsed to one (they
        would all hit anyway) but still count in :attr:`accesses`.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.size == 0:
            return 0
        _check_address(int(addrs.min()))
        lines = addrs // self.config.line_bytes
        keep = np.empty(lines.size, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])

        sets = self._sets
        num_sets = len(sets)
        ways = self._ways
        misses = 0
        for line in lines[keep].tolist():
            resident = sets[line % num_sets]
            if resident and resident[0] == line:
                continue
            if line in resident:
                resident.remove(line)
            else:
                misses += 1
                if len(resident) == ways:
                    resident.pop()
            resident.insert(0, line)
        self.accesses += lines.size
        self.misses += misses
        return misses
