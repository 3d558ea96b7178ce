"""Property suite for the tile-signature scheme.

The cache's exactness argument rests on four properties of
:mod:`repro.gpu.tilecache`, each driven here with hypothesis:

* **Determinism** — the same tile inputs always serialise to the same
  canonical key and the same signature.
* **Sensitivity** — perturbing *any* input the RBCD unit can observe
  (a vertex coordinate by one ULP, an object id, a facing or tagged
  bit, a config field) changes the tile's key.
* **No aliasing** — the key encoding is injective: two tiles' keys are
  equal exactly when their ordered collisionable primitive content is
  equal.  The per-segment length prefix makes concatenation attacks
  structurally impossible, not just unlikely.
* **Wrong hits are impossible** — even with the digest degraded to a
  constant (every lookup a hash collision), the full-key paranoia
  compare keeps every output bit-identical; collisions are merely
  counted.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.gpu.tilecache as tilecache
from repro.gpu.assembly import TriangleSoup
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.gpu.tilecache import (
    SIGNATURE_BYTES,
    TileResultCache,
    config_token,
    frame_tile_keys,
    tile_signature,
)
from repro.gpu.tiling import TileBinning
from repro.rbcd.unit import compute_tile
from repro.scenes.benchmarks import workload_by_alias

CFG = GPUConfig().with_screen(64, 64)  # 4x4 tiles of 16x16

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, width=64
)
depth = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


@st.composite
def soup_with_tiles(draw, min_prims=1, max_prims=8):
    """A random triangle soup plus a tile assignment per primitive."""
    n = draw(st.integers(min_prims, max_prims))
    soup = TriangleSoup(
        xy=draw(hnp.arrays(np.float64, (n, 3, 2), elements=coord)),
        z=draw(hnp.arrays(np.float64, (n, 3), elements=depth)),
        object_id=draw(
            hnp.arrays(np.int64, (n,), elements=st.integers(-1, 5))
        ),
        front=draw(hnp.arrays(np.bool_, (n,))),
        tagged=draw(hnp.arrays(np.bool_, (n,))),
        draw_index=np.zeros(n, dtype=np.int64),
    )
    tiles = draw(
        hnp.arrays(np.int64, (n,), elements=st.integers(0, CFG.tile_count - 1))
    )
    return soup, tiles


def binning_for(tiles: np.ndarray) -> TileBinning:
    """A TileBinning assigning each primitive to exactly one tile,
    sorted the way :func:`repro.gpu.tiling.bin_triangles` sorts —
    by (tile, submission order)."""
    order = np.argsort(tiles, kind="stable")
    return TileBinning(
        pair_tile=tiles[order].astype(np.int64),
        pair_prim=np.arange(tiles.shape[0], dtype=np.int64)[order],
        tile_offsets=np.zeros(1, dtype=np.int64),  # unused by the cache
        record_addresses=np.zeros(tiles.shape[0], dtype=np.int64),
    )


def tile_contents(soup, tiles):
    """Ordered collisionable content per tile — the ground truth the
    keys must represent injectively."""
    contents = {}
    for tile in np.unique(tiles):
        idx = np.flatnonzero((tiles == tile) & (soup.object_id >= 0))
        if idx.shape[0]:
            contents[int(tile)] = (
                soup.xy[idx].tobytes(), soup.z[idx].tobytes(),
                soup.object_id[idx].tobytes(), soup.front[idx].tobytes(),
                soup.tagged[idx].tobytes(),
            )
    return contents


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(soup_with_tiles())
    def test_same_inputs_same_keys_and_digests(self, data):
        soup, tiles = data
        first = frame_tile_keys(soup, binning_for(tiles), CFG)
        second = frame_tile_keys(soup, binning_for(tiles.copy()), CFG)
        assert first == second
        for key in first.values():
            digest = tile_signature(key)
            assert digest == tile_signature(key)
            assert len(digest) == SIGNATURE_BYTES

    def test_keys_cover_exactly_collisionable_tiles(self):
        soup, tiles = (
            TriangleSoup(
                xy=np.zeros((3, 3, 2)), z=np.zeros((3, 3)),
                object_id=np.array([0, -1, 1], dtype=np.int64),
                front=np.ones(3, dtype=bool), tagged=np.zeros(3, dtype=bool),
                draw_index=np.zeros(3, dtype=np.int64),
            ),
            np.array([0, 1, 2], dtype=np.int64),
        )
        keys = frame_tile_keys(soup, binning_for(tiles), CFG)
        # Tile 1 holds only the non-collisionable prim: no RBCD work,
        # no key.
        assert set(keys) == {0, 2}


class TestSensitivity:
    @settings(max_examples=80, deadline=None)
    @given(
        soup_with_tiles(),
        st.integers(0, 10**6),   # primitive picker
        st.integers(0, 2),       # vertex
        st.integers(0, 2),       # coordinate: x, y, or z
    )
    def test_one_ulp_vertex_perturbation_changes_the_key(
        self, data, prim_pick, vertex, axis
    ):
        soup, tiles = data
        prim = prim_pick % soup.count
        soup.object_id[prim] = max(soup.object_id[prim], 0)  # collisionable
        before = frame_tile_keys(soup, binning_for(tiles), CFG)
        if axis < 2:
            value = soup.xy[prim, vertex, axis]
            soup.xy[prim, vertex, axis] = np.nextafter(value, np.inf)
        else:
            value = soup.z[prim, vertex]
            soup.z[prim, vertex] = np.nextafter(value, np.inf)
        after = frame_tile_keys(soup, binning_for(tiles), CFG)
        tile = int(tiles[prim])
        assert before[tile] != after[tile]
        assert tile_signature(before[tile]) != tile_signature(after[tile])

    @settings(max_examples=60, deadline=None)
    @given(soup_with_tiles(), st.integers(0, 10**6),
           st.sampled_from(["object_id", "front", "tagged"]))
    def test_flipping_any_field_bit_changes_the_key(
        self, data, prim_pick, fieldname
    ):
        soup, tiles = data
        prim = prim_pick % soup.count
        soup.object_id[prim] = max(soup.object_id[prim], 0)
        before = frame_tile_keys(soup, binning_for(tiles), CFG)
        if fieldname == "object_id":
            soup.object_id[prim] += 1
        else:
            field = getattr(soup, fieldname)
            field[prim] = ~field[prim]
        after = frame_tile_keys(soup, binning_for(tiles), CFG)
        tile = int(tiles[prim])
        assert before[tile] != after[tile]

    @pytest.mark.parametrize("mutate", [
        lambda c: c.with_screen(65, 64),
        lambda c: c.with_screen(64, 65),
        lambda c: c.with_rbcd(zeb_count=1),
        lambda c: c.with_rbcd(list_length=4, ff_stack_entries=4),
        lambda c: c.with_rbcd(ff_stack_entries=16),
        lambda c: c.with_rbcd(spare_entries_per_tile=8),
        lambda c: c.with_rbcd(cpu_fallback_overflow_rate=0.5),
        lambda c: c.with_rbcd(z_bits=17, id_bits=14),
    ])
    def test_config_fields_feed_the_token(self, mutate):
        assert config_token(CFG) != config_token(mutate(CFG))

    @pytest.mark.parametrize("mutate", [
        # Knobs that never change a tile's result must NOT invalidate
        # signatures: the kernel backend, fragment-shading cost, and
        # the cache switch itself.
        lambda c: c.with_kernel_backend("reference"),
        lambda c: replace(c, cycles_per_fragment=8.0),
        lambda c: c.with_tile_cache(True),
    ])
    def test_result_invariant_fields_stay_out_of_the_token(self, mutate):
        assert config_token(CFG) == config_token(mutate(CFG))


class TestNoAliasing:
    @settings(max_examples=60, deadline=None)
    @given(soup_with_tiles(), soup_with_tiles())
    def test_key_equality_iff_content_equality(self, a, b):
        """Injectivity over randomized streams: keys collide exactly
        when the ordered collisionable tile content is identical."""
        soup_a, tiles_a = a
        soup_b, tiles_b = b
        keys_a = frame_tile_keys(soup_a, binning_for(tiles_a), CFG)
        keys_b = frame_tile_keys(soup_b, binning_for(tiles_b), CFG)
        content_a = tile_contents(soup_a, tiles_a)
        content_b = tile_contents(soup_b, tiles_b)
        assert set(keys_a) == set(content_a)
        assert set(keys_b) == set(content_b)
        for tile in set(keys_a) & set(keys_b):
            assert (keys_a[tile] == keys_b[tile]) == (
                content_a[tile] == content_b[tile]
            )

    def test_count_prefix_blocks_boundary_shifts(self):
        """A 2-prim tile can never alias a 1-prim tile even when the
        extra prim serialises to bytes that extend the shorter key —
        the count is written before any payload."""
        soup = TriangleSoup(
            xy=np.zeros((2, 3, 2)), z=np.zeros((2, 3)),
            object_id=np.zeros(2, dtype=np.int64),
            front=np.ones(2, dtype=bool), tagged=np.zeros(2, dtype=bool),
            draw_index=np.zeros(2, dtype=np.int64),
        )
        one = frame_tile_keys(
            soup, binning_for(np.array([0, 1], dtype=np.int64)), CFG
        )
        both = frame_tile_keys(
            soup, binning_for(np.array([0, 0], dtype=np.int64)), CFG
        )
        assert one[0] != both[0]
        assert not both[0].startswith(one[0])  # count differs up front

    def test_same_content_different_tile_differs(self):
        """The tile index is part of the key: identical content binned
        to another tile must not replay this tile's result (their
        local pixel coordinates differ)."""
        soup = TriangleSoup(
            xy=np.zeros((1, 3, 2)), z=np.zeros((1, 3)),
            object_id=np.zeros(1, dtype=np.int64),
            front=np.ones(1, dtype=bool), tagged=np.zeros(1, dtype=bool),
            draw_index=np.zeros(1, dtype=np.int64),
        )
        at_zero = frame_tile_keys(
            soup, binning_for(np.array([0], dtype=np.int64)), CFG
        )[0]
        at_one = frame_tile_keys(
            soup, binning_for(np.array([1], dtype=np.int64)), CFG
        )[1]
        assert at_zero != at_one


def tiny_result(tile_index=0):
    return compute_tile(
        CFG, tile_index,
        x=np.array([0, 1], dtype=np.int64),
        y=np.array([0, 0], dtype=np.int64),
        z=np.array([0.25, 0.5]),
        object_id=np.array([0, 1], dtype=np.int64),
        is_front=np.array([True, True]),
    )


class TestForcedCollisions:
    def test_degenerate_digest_never_returns_a_wrong_result(self, monkeypatch):
        """With the digest degraded to a constant, every changed tile
        is a hash collision — the full-key compare must catch each one
        and fall back to recomputation."""
        monkeypatch.setattr(
            tilecache, "tile_signature",
            lambda key: b"\x00" * SIGNATURE_BYTES,
        )
        cache = TileResultCache(CFG)
        result = tiny_result()
        cache.store(0, b"key-one", result)
        assert cache.lookup(0, b"key-two") is None  # collision, not a hit
        assert cache.frame_collisions == 1
        assert cache.lookup(0, b"key-one") is result  # true hit still works
        assert cache.frame_hits == 1

    def test_animation_stays_exact_under_forced_collisions(self, monkeypatch):
        """End-to-end: a whole animated scene rendered with the
        constant digest produces bit-identical frames and a nonzero
        collision count — a wrong hit would be caught, and is."""
        workload = workload_by_alias("crazy", detail=1)
        config = GPUConfig().with_screen(160, 96)

        def render_all(cfg):
            frames = []
            gpu = GPU(cfg, rbcd_enabled=True)
            for t in workload.times(3):
                result = gpu.render_frame(
                    workload.scene.frame_at(float(t), cfg)
                )
                frames.append({
                    "pairs": result.collisions.as_sorted_pairs(),
                    "stats": result.stats.as_dict(),
                    "cycles": result.gpu_cycles,
                })
                yielded = result.tilecache
            frames.append(
                yielded.as_dict() if yielded is not None else None
            )
            return frames

        baseline = render_all(config.with_tile_cache(False))
        monkeypatch.setattr(
            tilecache, "tile_signature",
            lambda key: b"\xab" * SIGNATURE_BYTES,
        )
        collided = render_all(config.with_tile_cache(True))
        assert collided[:-1] == baseline[:-1]
        last_counters = collided[-1]
        assert last_counters["gpu.tilecache.collisions"] > 0
