"""Functional set-associative cache model with exact LRU replacement.

Used for the vertex cache and the tile cache, whose hit/miss behaviour
feeds the activity factors of Figure 11 (tile-cache loads and misses)
and the energy model.  Addresses are synthetic byte addresses assigned
by the producing stage (e.g. polygon-list record offsets).

Both stock caches are 2-way, and up to two ways LRU has a closed form.
An access hits iff fewer than ``ways`` distinct lines were touched in
its set since that line's last touch (the stack-distance property;
Mattson et al., "Evaluation techniques for storage hierarchies", 1970).
Sort the accesses stably by set and collapse each set's runs of one
tag: all but the first of a run hit.  Then at 2 ways a collapsed access
hits iff its tag equals the tag two collapsed accesses earlier in the
same set, and at 1 way every collapsed access misses.  State carries
from call to call by prepending each set's resident lines, least
recently used first, as accesses whose results are discarded.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import CacheConfig


def _check_address(address: int) -> None:
    if address < 0:
        raise ValueError(f"cache address must be non-negative, got {address}")


class Cache:
    """Set-associative LRU cache over non-negative byte addresses.

    ``_lines`` holds every set's resident line numbers as one
    ``(num_sets, ways)`` int64 array, most recently used first, with -1
    for an empty way.  :meth:`access_many` is the one replacement path;
    the single-access methods go through it.  Up to two ways it is the
    closed form of the module docstring, with no per-access Python
    loop.  Wider caches (no stock configuration) walk each set's MRU
    list one collapsed access at a time instead, reading and writing the
    same array.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._lines = np.full((config.num_sets, config.ways), -1, dtype=np.int64)
        self.accesses = 0
        self.misses = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines (between frames, if desired)."""
        self._lines.fill(-1)

    def resident_lines(self) -> list[list[int]]:
        """Every set's resident lines, most recently used first."""
        return [[line for line in row if line >= 0] for row in self._lines.tolist()]

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

    def access_many(self, addresses: np.ndarray, out: np.ndarray | None = None) -> int:
        """Touch a 1-D sequence of integer byte addresses in order.

        Returns the number of misses.  Every address counts in
        :attr:`accesses`.  ``out``, if given, is a bool array of
        ``addresses``' shape that receives each access's miss flag.
        """
        addrs = np.asarray(addresses)
        if addrs.ndim != 1:
            raise ValueError(
                f"cache addresses must be a 1-D array, got shape {addrs.shape}"
            )
        if addrs.size and addrs.dtype.kind not in "iu":
            raise ValueError(
                f"cache addresses must be integers, got dtype {addrs.dtype}"
            )
        if out is None:
            out = np.empty(addrs.shape, dtype=bool)
        elif not (
            isinstance(out, np.ndarray)
            and out.dtype == np.bool_
            and out.shape == addrs.shape
        ):
            raise ValueError(
                f"out must be a bool array of shape {addrs.shape}, got "
                f"{getattr(out, 'dtype', type(out).__name__)} of shape "
                f"{getattr(out, 'shape', None)}"
            )
        if addrs.size == 0:
            return 0
        addrs = addrs.astype(np.int64, copy=False)
        _check_address(int(addrs.min()))
        lines = addrs // self.config.line_bytes
        if self.config.ways <= 2:
            self._closed_form(lines, out)
        else:
            self._walk(lines, out)
        misses = int(np.count_nonzero(out))
        self.accesses += lines.size
        self.misses += misses
        return misses

    def _closed_form(self, lines: np.ndarray, out: np.ndarray) -> None:
        """Per-access misses of ``lines`` for 1 or 2 ways, no Python loop."""
        state = self._lines
        num_sets, ways = state.shape
        carried = state[:, ::-1].ravel()  # every set's LRU then MRU line
        carried = carried[carried >= 0]
        stream = np.concatenate((carried, lines))
        set_of = (stream % num_sets).astype(np.min_scalar_type(num_sets - 1))
        # Stable, so each set keeps its carried lines first and its
        # accesses in program order; small set indices sort by radix.
        order = np.argsort(set_of, kind="stable")
        s = set_of[order]
        t = stream[order]
        t //= num_sets
        # A line is its (set, tag) pair: a run collapses only while both
        # repeat, and the 2-back compare only counts within one set.
        kept = np.empty(order.size, dtype=bool)
        kept[0] = True
        np.not_equal(t[1:], t[:-1], out=kept[1:])
        kept[1:] |= s[1:] != s[:-1]
        ks = s[kept]
        kt = t[kept]
        hit = np.zeros(kt.size, dtype=bool)
        if ways == 2:
            hit[2:] = (kt[2:] == kt[:-2]) & (ks[2:] == ks[:-2])
        kept[kept] = ~hit  # from here on: the sorted accesses that miss
        missed = np.empty(order.size, dtype=bool)
        missed[order] = kept
        out[:] = missed[carried.size:]

        # New state: each set's last two collapsed lines, MRU first.
        last = np.flatnonzero(np.append(ks[1:] != ks[:-1], True))
        touched = ks[last]
        state[touched, 0] = kt[last] * num_sets + touched
        if ways == 2:
            prev = np.maximum(last - 1, 0)
            same = (last > 0) & (ks[prev] == touched)
            state[touched, 1] = np.where(same, kt[prev] * num_sets + touched, -1)

    def _walk(self, lines: np.ndarray, out: np.ndarray) -> None:
        """Per-access misses of ``lines`` by MRU-list walk (ways > 2)."""
        num_sets, ways = self._lines.shape
        sets = self.resident_lines()
        # Consecutive accesses to one line: all but the first hit.
        kept = np.empty(lines.size, dtype=bool)
        kept[0] = True
        np.not_equal(lines[1:], lines[:-1], out=kept[1:])
        missed = []
        for line in lines[kept].tolist():
            resident = sets[line % num_sets]
            if line in resident:
                resident.remove(line)
                missed.append(False)
            else:
                missed.append(True)
                if len(resident) == ways:
                    resident.pop()
            resident.insert(0, line)
        out[:] = False
        out[kept] = missed
        self._lines[:] = [row + [-1] * (ways - len(row)) for row in sets]
