"""Cross-frame tile redundancy elimination (the signature cache).

*Rendering Elimination: Early Discard of Redundant Tiles* (same group
as the source paper) observes that animated scenes keep large screen
regions bit-identical from frame to frame: if a tile's *inputs* are
unchanged, its outputs are too, so the tile's work can be skipped and
the previous frame's result replayed.  This module applies the idea to
the collision path of the simulated GPU.

Scope
-----
The cache covers exactly the work whose inputs the signature captures:
the RBCD unit's per-tile pipeline (ZEB sorted insertion + Z-Overlap
Test), which consumes only the tile's **collisionable** fragments.
Those fragments are a pure function of

* the ordered set of collisionable primitives binned to the tile —
  their transformed vertex bits (``xy``/``z``), object ids, facing and
  tagged-to-be-culled bits, in submission order — and
* the GPU/RBCD configuration fields that shape fragments and ZEB
  behaviour (tile geometry, screen clip bounds, the full RBCD config).

:func:`frame_tile_keys` serialises precisely that per tile into a
canonical byte string; :func:`tile_signature` hashes it (blake2b,
256 bit) into the on-chip signature register the hardware would keep
per tile.  On a signature match the cached
:class:`~repro.rbcd.unit.RBCDTileResult` is replayed instead of
recomputed, so every downstream consumer — the deterministic merge,
counters, pair records with evidence fields, per-tile energy, live
telemetry — sees bit-identical outputs versus cache-off.

Exactness
---------
A wrong hit is impossible by construction, not just improbable: on a
digest match the cache additionally compares the stored *full key
bytes* (the hardware analogue: signatures make the compare cheap, the
paranoid compare makes it sound).  A digest collision is therefore
counted (``gpu.tilecache.collisions``) and treated as a miss.  The
forced-collision harness in ``tests/gpu/test_tilecache_properties.py``
degrades the digest to a constant and proves results stay exact.

Energy/cycle model for hits
---------------------------
The functional simulator still rasterises and shades every tile (the
image must be produced either way); what a hit skips is the per-tile
RBCD compute, and what the *hardware* would save is modelled in a
separate ``gpu.tilecache.*`` counter namespace so the baseline
deterministic outputs stay untouched:

* ``cycles_saved`` / ``joules_saved`` — the replayed tile's insertion +
  overlap cycles and its dynamic RBCD energy
  (:meth:`~repro.energy.rbcd_power.RBCDEnergyModel.tile_breakdown`);
* ``signature_cycles`` / ``signature_j`` — the cost a signature scheme
  pays on *every* lookup and store: one cycle to compare (one to write),
  and per 32-bit signature word an SRAM read + equality compare
  (write: an SRAM write), priced from
  :class:`~repro.energy.components.ComponentEnergies`.

Net savings (``cycles_saved - signature_cycles``) feed the bench
document's ``tilecache.effective_gpu_cycles`` / ``effective_total_j``
metrics (schema v5), which the regression gate holds like any other
deterministic metric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.energy.components import ComponentEnergies
from repro.energy.rbcd_power import RBCDEnergyModel
from repro.gpu.config import GPUConfig
from repro.gpu.tiling import TileBinning
from repro.observability.counters import CounterRegistry
from repro.rbcd.unit import RBCDTileResult

__all__ = [
    "SIGNATURE_BYTES",
    "config_token",
    "frame_tile_keys",
    "tile_signature",
    "TileResultCache",
]

# Signature width: 256 bits = eight 32-bit signature words on chip.
SIGNATURE_BYTES = 32
_SIGNATURE_WORDS = SIGNATURE_BYTES * 8 // 32

# Serialization version: bump to invalidate every stored signature when
# the key layout changes.
_KEY_VERSION = b"rbcd-tilesig-v1"


@lru_cache(maxsize=None)
def config_token(config: GPUConfig) -> bytes:
    """Canonical bytes of every config field that shapes a tile's
    collisionable fragment stream or its RBCD processing.

    The kernel backend is deliberately excluded: all kernel backends
    are bit-identical (enforced by the conformance suite), so including
    it would cost hits without buying exactness.  The
    fragment-shading fields (``cycles_per_fragment`` etc.) are excluded
    too — they never reach the RBCD unit.
    """
    r = config.rbcd
    return repr((
        _KEY_VERSION,
        config.tile_size,
        config.screen_width,
        config.screen_height,
        r.zeb_count,
        r.list_length,
        r.element_bits,
        r.z_bits,
        r.id_bits,
        r.ff_stack_entries,
        r.spare_entries_per_tile,
        r.cpu_fallback_overflow_rate,
    )).encode("ascii")


def _tile_key(
    soup, prim_idx: np.ndarray, tile_index: int, token: bytes
) -> bytes:
    """Canonical key of one tile's ordered collisionable primitive set.

    Every segment has a length determined by ``len(prim_idx)`` (written
    first), so the encoding is injective: two different primitive sets
    can never serialise to the same bytes.
    """
    return b"".join((
        token,
        int(tile_index).to_bytes(8, "little"),
        int(prim_idx.shape[0]).to_bytes(8, "little"),
        np.ascontiguousarray(soup.xy[prim_idx]).tobytes(),
        np.ascontiguousarray(soup.z[prim_idx]).tobytes(),
        np.ascontiguousarray(soup.object_id[prim_idx]).tobytes(),
        np.ascontiguousarray(soup.front[prim_idx]).tobytes(),
        np.ascontiguousarray(soup.tagged[prim_idx]).tobytes(),
    ))


def tile_signature(key: bytes) -> bytes:
    """The on-chip signature of one canonical tile key."""
    return hashlib.blake2b(key, digest_size=SIGNATURE_BYTES).digest()


def frame_tile_keys(
    soup, binning: TileBinning, config: GPUConfig
) -> dict[int, bytes]:
    """Canonical keys for every tile with at least one collisionable
    primitive binned to it.

    Tiles without collisionable primitives produce no RBCD work and
    therefore need no key.  Primitive order within a tile is submission
    order (what :func:`~repro.gpu.tiling.bin_triangles` stores), which
    is also the order the tile's fragments reach the RBCD unit — the
    property that makes the key determine the tile result exactly.
    """
    token = config_token(config)
    if binning.pair_count == 0:
        return {}
    coll = soup.object_id[binning.pair_prim] >= 0
    tiles = binning.pair_tile[coll]
    prims = binning.pair_prim[coll]
    if tiles.shape[0] == 0:
        return {}
    boundaries = np.flatnonzero(np.r_[True, tiles[1:] != tiles[:-1]])
    boundaries = np.r_[boundaries, tiles.shape[0]]
    keys: dict[int, bytes] = {}
    for b in range(boundaries.shape[0] - 1):
        lo, hi = boundaries[b], boundaries[b + 1]
        tile = int(tiles[lo])
        keys[tile] = _tile_key(soup, prims[lo:hi], tile, token)
    return keys


@dataclass
class _Entry:
    """One cached tile: signature, full key (paranoia), and result."""

    digest: bytes
    key: bytes
    result: RBCDTileResult


class TileResultCache:
    """Per-tile previous-result cache keyed by canonical signatures.

    One entry per tile index, overwritten on every miss and kept
    forever otherwise — a tile whose collisionable content reappears
    unchanged after any number of frames still hits, because the key
    alone determines the result.

    All tallies are **per frame** (reset by :meth:`begin_frame`) so the
    pipeline can attach one registry snapshot per
    :class:`~repro.gpu.pipeline.FrameResult`; lifetime totals are kept
    alongside for quick inspection.
    """

    def __init__(
        self,
        gpu_config: GPUConfig,
        rbcd_model: RBCDEnergyModel | None = None,
        components: ComponentEnergies | None = None,
    ) -> None:
        self.gpu_config = gpu_config
        # Savings are priced from the *dynamic* tile breakdown, which
        # is independent of the static-power wiring — a default model
        # is exactly equivalent to the pipeline's own.
        self.rbcd_model = (
            rbcd_model if rbcd_model is not None
            else RBCDEnergyModel(gpu_config, components=components)
        )
        c = self.rbcd_model.components
        # One wide compare per lookup, one wide write per store.
        self.signature_compare_cycles = 1.0
        self.signature_store_cycles = 1.0
        self.signature_compare_j = _SIGNATURE_WORDS * (
            c.sram_word_read_j + c.eq_comparator_j
        )
        self.signature_store_j = _SIGNATURE_WORDS * c.sram_word_write_j
        self._entries: dict[int, _Entry] = {}
        self.total_lookups = 0
        self.total_hits = 0
        self.total_collisions = 0
        self._zero_frame()

    def _zero_frame(self) -> None:
        self.frame_lookups = 0
        self.frame_hits = 0
        self.frame_misses = 0
        self.frame_collisions = 0
        self.frame_stores = 0
        self.frame_cycles_saved = 0.0
        self.frame_joules_saved = 0.0
        self.frame_signature_cycles = 0.0
        self.frame_signature_j = 0.0
        self.frame_hit_tiles: list[int] = []
        self.frame_miss_tiles: list[int] = []

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Drop every entry and tally (cold cache, fresh counters)."""
        self._entries.clear()
        self.total_lookups = 0
        self.total_hits = 0
        self.total_collisions = 0
        self._zero_frame()

    def begin_frame(self) -> None:
        """Start a new frame: per-frame tallies to zero, entries kept."""
        self._zero_frame()

    @property
    def entries(self) -> int:
        return len(self._entries)

    # -- the cache protocol ----------------------------------------------

    def lookup(self, tile_index: int, key: bytes) -> RBCDTileResult | None:
        """Return the cached result when the tile's signature matches.

        A digest match with differing key bytes is a hash collision:
        counted, and handled as a miss — the replayed-result contract
        is exactness, never probability.
        """
        self.frame_lookups += 1
        self.total_lookups += 1
        self.frame_signature_cycles += self.signature_compare_cycles
        self.frame_signature_j += self.signature_compare_j
        entry = self._entries.get(tile_index)
        digest = tile_signature(key)
        if entry is not None and entry.digest == digest:
            if entry.key != key:
                self.frame_collisions += 1
                self.total_collisions += 1
            else:
                result = entry.result
                self.frame_hits += 1
                self.total_hits += 1
                self.frame_hit_tiles.append(tile_index)
                self.frame_cycles_saved += (
                    result.insertion_cycles + result.overlap_cycles
                )
                self.frame_joules_saved += self.rbcd_model.tile_breakdown(
                    result
                ).total_j
                return result
        self.frame_misses += 1
        self.frame_miss_tiles.append(tile_index)
        return None

    def store(self, tile_index: int, key: bytes, result: RBCDTileResult) -> None:
        """Install a freshly computed tile result under its signature."""
        self._entries[tile_index] = _Entry(tile_signature(key), key, result)
        self.frame_stores += 1
        self.frame_signature_cycles += self.signature_store_cycles
        self.frame_signature_j += self.signature_store_j

    # -- observability ----------------------------------------------------

    @property
    def frame_hit_rate(self) -> float:
        if self.frame_lookups == 0:
            return 0.0
        return self.frame_hits / self.frame_lookups

    def frame_registry(self) -> CounterRegistry:
        """Named-counter snapshot of this frame's cache activity.

        The namespace is additive-only: nothing here touches the
        ``gpu.*`` stats counters, so every pre-existing deterministic
        output is bit-identical with the cache on or off.
        """
        registry = CounterRegistry()
        for name, value in (
            ("gpu.tilecache.lookups", self.frame_lookups),
            ("gpu.tilecache.hits", self.frame_hits),
            ("gpu.tilecache.misses", self.frame_misses),
            ("gpu.tilecache.collisions", self.frame_collisions),
            ("gpu.tilecache.stores", self.frame_stores),
        ):
            registry.counter(name, kind="int")
            registry.set(name, value)
        for name, unit, value in (
            ("gpu.tilecache.cycles_saved", "cycles", self.frame_cycles_saved),
            ("gpu.tilecache.signature_cycles", "cycles",
             self.frame_signature_cycles),
            ("gpu.tilecache.joules_saved", "J", self.frame_joules_saved),
            ("gpu.tilecache.signature_j", "J", self.frame_signature_j),
        ):
            registry.counter(name, kind="float", unit=unit)
            registry.set(name, value)
        return registry
