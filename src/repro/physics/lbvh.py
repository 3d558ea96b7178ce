"""Linear BVH broad phase: Morton codes + radix sort + radix tree.

The second broad-phase backend of
:class:`~repro.physics.world.CollisionWorld` (next to the brute-force
baseline), and the exact oracle's broad phase.  The LBVH is the
standard GPU-friendly decomposition of broad-phase CD — build a spatial
tree in three data-parallel passes instead of incremental insertion:

1. Quantize each object's AABB centroid onto a ``2^10``-per-axis grid
   over the scene bounds and interleave the bits into a 30-bit
   **Morton code** (``z-order``), so spatial proximity becomes numeric
   proximity.
2. **Radix-sort** the codes (stable LSD counting sort, 8-bit digits) —
   the sorted order is the leaf order.
3. Build the **binary radix tree** over the sorted codes (Karras 2012):
   each internal node splits its range at the highest differing Morton
   bit.  Ties between duplicate codes are broken by leaf index
   (equivalent to appending the index below the code bits), which keeps
   the tree well-formed for degenerate clouds where every centroid
   lands on one grid cell.  A bottom-up pass then refits exact AABB
   unions onto every node.

Pair query: for every leaf, descend from the root, pruning subtrees
whose boxes miss the leaf's box *or whose leaf range lies entirely at
or before the query leaf* (each unordered pair is visited exactly
once).  Because internal boxes are exact unions and the leaf-vs-leaf
test is the same closed-interval 6-compare as brute force, the pair
set equals :func:`~repro.physics.broadphase.aabb_bruteforce_pairs`
exactly — a property the LBVH suite asserts on randomized and
degenerate clouds.

Operation counting mirrors the scalar algorithm the counters price
elsewhere: per-element quantize/encode flops, per-pass radix loads and
stores, one counted delta evaluation per binary-search probe, and the
same 6-compare/12-load node visit cost as a brute-force pair test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.physics.broadphase import BroadPhaseResult, _overlap_counted
from repro.physics.counters import OpCounter

MORTON_BITS_PER_AXIS = 10
MORTON_BITS = 3 * MORTON_BITS_PER_AXIS
GRID_MAX = (1 << MORTON_BITS_PER_AXIS) - 1  # 1023
RADIX_BITS = 8

__all__ = [
    "MORTON_BITS",
    "MORTON_BITS_PER_AXIS",
    "GRID_MAX",
    "LBVH",
    "expand_bits_3",
    "compact_bits_3",
    "morton_encode",
    "morton_decode",
    "quantize_centroids",
    "radix_argsort",
    "build_lbvh",
    "lbvh_broadphase_pairs",
]


# ---------------------------------------------------------------------------
# Morton codes
# ---------------------------------------------------------------------------


def expand_bits_3(v: np.ndarray) -> np.ndarray:
    """Spread the low 10 bits of each value 3 apart (b -> 0b00b00b...)."""
    v = np.asarray(v, dtype=np.uint64) & np.uint64(0x3FF)
    v = (v | (v << np.uint64(16))) & np.uint64(0xFF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x0F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0xC30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x49249249)
    return v


def compact_bits_3(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand_bits_3`: gather every third bit."""
    v = np.asarray(v, dtype=np.uint64) & np.uint64(0x49249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0xC30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x0F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0xFF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x3FF)
    return v


def morton_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave three 10-bit grid coordinates into 30-bit codes."""
    return (
        (expand_bits_3(ix) << np.uint64(2))
        | (expand_bits_3(iy) << np.uint64(1))
        | expand_bits_3(iz)
    )


def morton_decode(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the (ix, iy, iz) grid coordinates of Morton codes."""
    codes = np.asarray(codes, dtype=np.uint64)
    return (
        compact_bits_3(codes >> np.uint64(2)),
        compact_bits_3(codes >> np.uint64(1)),
        compact_bits_3(codes),
    )


def quantize_centroids(
    centers: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Map (N, 3) centroids within [lo, hi] to integer grid coords.

    Degenerate axes (zero scene extent) collapse to grid coordinate 0,
    which is what makes all-identical clouds legal inputs.
    """
    centers = np.asarray(centers, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    extent = np.asarray(hi, dtype=np.float64) - lo
    safe = np.where(extent > 0.0, extent, 1.0)
    unit = np.clip((centers - lo) / safe, 0.0, 1.0)
    return np.minimum(
        np.floor(unit * (GRID_MAX + 1)).astype(np.int64), GRID_MAX
    )


# ---------------------------------------------------------------------------
# Radix sort
# ---------------------------------------------------------------------------


def radix_argsort(
    keys: np.ndarray,
    key_bits: int = MORTON_BITS,
    ops: OpCounter | None = None,
) -> np.ndarray:
    """Stable LSD radix argsort of unsigned integer keys.

    Counting-sort passes over 8-bit digits; each pass is stable, so
    equal keys keep their input order (verified against
    ``np.argsort(kind="stable")`` by the property suite).  The scatter
    loop is scalar on purpose: it is the executable spec the op tally
    prices (object counts in the broad phase are small).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    order = np.arange(n, dtype=np.int64)
    if n < 2:
        return order
    mask = np.uint64((1 << RADIX_BITS) - 1)
    passes = -(-key_bits // RADIX_BITS)  # ceil
    for p in range(passes):
        shift = np.uint64(p * RADIX_BITS)
        digits = ((keys[order] >> shift) & mask).astype(np.int64)
        counts = np.bincount(digits, minlength=1 << RADIX_BITS)
        offsets = np.cumsum(counts) - counts
        out = np.empty_like(order)
        for i in range(n):
            d = digits[i]
            out[offsets[d]] = order[i]
            offsets[d] += 1
        order = out
        if ops is not None:
            # Per element: key load, digit extract, histogram rmw,
            # ordered store.
            ops.add_all(flop=n, mem=4 * n, branch=n)
    return order


# ---------------------------------------------------------------------------
# Binary radix tree (Karras 2012)
# ---------------------------------------------------------------------------


@dataclass
class LBVH:
    """A built LBVH over ``num_leaves`` sorted leaves.

    Node index space: internal nodes ``0 .. num_leaves-2``, leaves
    ``num_leaves-1 .. 2*num_leaves-2`` (leaf ``i`` of the sorted order
    is node ``(num_leaves - 1) + i``).  The root is node 0 (or the
    single leaf when ``num_leaves == 1``).  ``leaf_order[i]`` is the
    original object index of sorted leaf ``i``; ``first``/``last`` give
    the inclusive sorted-leaf range each internal node covers.
    """

    num_leaves: int
    leaf_order: np.ndarray   # (N,) original object index per sorted leaf
    codes: np.ndarray        # (N,) sorted Morton codes (uint64)
    left: np.ndarray         # (max(N-1, 0),) child node index
    right: np.ndarray        # (max(N-1, 0),)
    parent: np.ndarray       # (2N-1,) parent node index, -1 at the root
    first: np.ndarray        # (max(N-1, 0),) first sorted leaf covered
    last: np.ndarray         # (max(N-1, 0),) last sorted leaf covered
    node_lo: np.ndarray      # (2N-1, 3) exact AABB union per node
    node_hi: np.ndarray      # (2N-1, 3)

    @property
    def num_internal(self) -> int:
        return self.num_leaves - 1 if self.num_leaves > 1 else 0

    @property
    def root(self) -> int:
        return 0 if self.num_leaves > 1 else self.num_internal

    def is_leaf_node(self, node: int) -> bool:
        return node >= self.num_internal


def _make_delta(codes: np.ndarray, n: int, ops: OpCounter | None):
    """Common-prefix length over index-augmented keys.

    Duplicate Morton codes are disambiguated by the leaf index below
    the code bits (Karras's tie-break), so ``delta`` is well defined
    and the tree stays binary for fully degenerate clouds.
    """
    augmented = (codes.astype(np.uint64) << np.uint64(32)) | np.arange(
        n, dtype=np.uint64
    )

    def delta(i: int, j: int) -> int:
        if j < 0 or j >= n:
            return -1
        if ops is not None:
            ops.add_all(flop=1, cmp=2, mem=2)
        return 64 - int(augmented[i] ^ augmented[j]).bit_length()

    return delta


def build_lbvh(
    boxes: list[AABB], ops: OpCounter | None = None
) -> LBVH:
    """Build the tree over a list of world AABBs (original order kept
    in ``leaf_order``)."""
    n = len(boxes)
    if n == 0:
        raise ValueError("cannot build an LBVH over zero boxes")
    lo = np.array([b.lo.to_array() for b in boxes], dtype=np.float64)
    hi = np.array([b.hi.to_array() for b in boxes], dtype=np.float64)
    centers = (lo + hi) * 0.5
    scene_lo = lo.min(axis=0)
    scene_hi = hi.max(axis=0)
    grid = quantize_centroids(centers, scene_lo, scene_hi)
    codes = morton_encode(grid[:, 0], grid[:, 1], grid[:, 2])
    if ops is not None:
        # Per object: centroid (3 adds, 3 muls), normalize (3 subs,
        # 3 divs), clip (6 compares), 3x expand-bits (4 mask rounds
        # each) + interleave.
        ops.add_all(flop=n * (6 + 6 + 14), cmp=n * 6, mem=n * 8)

    order = radix_argsort(codes, ops=ops)
    sorted_codes = codes[order]

    num_internal = n - 1 if n > 1 else 0
    total_nodes = num_internal + n
    left = np.full(num_internal, -1, dtype=np.int64)
    right = np.full(num_internal, -1, dtype=np.int64)
    parent = np.full(total_nodes, -1, dtype=np.int64)
    first = np.full(num_internal, -1, dtype=np.int64)
    last = np.full(num_internal, -1, dtype=np.int64)

    delta = _make_delta(sorted_codes, n, ops)

    for i in range(num_internal):
        # Direction of this node's range: towards the longer prefix.
        d = 1 if delta(i, i + 1) > delta(i, i - 1) else -1
        delta_min = delta(i, i - d)

        # Exponential then binary search for the range's other end.
        l_max = 2
        while delta(i, i + l_max * d) > delta_min:
            l_max *= 2
        length = 0
        t = l_max // 2
        while t >= 1:
            if delta(i, i + (length + t) * d) > delta_min:
                length += t
            t //= 2
        j = i + length * d

        # Split position: highest differing bit within [i, j].
        delta_node = delta(i, j)
        s = 0
        t = length
        while True:
            t = (t + 1) // 2
            if delta(i, i + (s + t) * d) > delta_node:
                s += t
            if t == 1:
                break
        gamma = i + s * d + min(d, 0)

        lo_i, hi_i = min(i, j), max(i, j)
        first[i], last[i] = lo_i, hi_i
        left_child = num_internal + gamma if lo_i == gamma else gamma
        right_child = (
            num_internal + gamma + 1 if hi_i == gamma + 1 else gamma + 1
        )
        left[i] = left_child
        right[i] = right_child
        parent[left_child] = i
        parent[right_child] = i

    # Exact AABB refit, bottom-up: a node's box is computed on the
    # second arrival from below, when both children are final.
    node_lo = np.empty((total_nodes, 3), dtype=np.float64)
    node_hi = np.empty((total_nodes, 3), dtype=np.float64)
    node_lo[num_internal:] = lo[order]
    node_hi[num_internal:] = hi[order]
    arrivals = np.zeros(max(num_internal, 1), dtype=np.int64)
    for leaf in range(n):
        node = parent[num_internal + leaf]
        while node != -1:
            arrivals[node] += 1
            if arrivals[node] < 2:
                break
            lc, rc = left[node], right[node]
            node_lo[node] = np.minimum(node_lo[lc], node_lo[rc])
            node_hi[node] = np.maximum(node_hi[lc], node_hi[rc])
            if ops is not None:
                ops.add_all(flop=6, cmp=6, mem=12)
            node = parent[node]

    return LBVH(
        num_leaves=n,
        leaf_order=order,
        codes=sorted_codes,
        left=left,
        right=right,
        parent=parent,
        first=first,
        last=last,
        node_lo=node_lo,
        node_hi=node_hi,
    )


def _boxes_overlap(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> bool:
    """Closed-interval overlap (touching counts), as AABB.overlaps."""
    return bool(np.all(lo_a <= hi_b) and np.all(lo_b <= hi_a))


def lbvh_broadphase_pairs(
    boxes: list[AABB], ids: list[int], ops: OpCounter
) -> BroadPhaseResult:
    """LBVH build + self-query; pair set equals brute force exactly.

    For each sorted leaf ``l`` the traversal prunes every subtree whose
    covered leaf range ends at or before ``l`` — each unordered pair is
    examined from its lower sorted leaf only — and subtrees whose exact
    union box misses the leaf's box.  Surviving leaf-leaf candidates
    run the same counted 6-compare test as the brute-force baseline.
    """
    if len(boxes) != len(ids):
        raise ValueError("need one id per box")
    n = len(boxes)
    if n < 2:
        return BroadPhaseResult(pairs=[], ops=ops)

    tree = build_lbvh(boxes, ops)
    num_internal = tree.num_internal
    pairs: list[tuple[int, int]] = []
    for l in range(n):
        leaf_lo = tree.node_lo[num_internal + l]
        leaf_hi = tree.node_hi[num_internal + l]
        obj_a = int(tree.leaf_order[l])
        stack = [tree.root]
        while stack:
            node = stack.pop()
            ops.add_all(cmp=6, mem=12, branch=2)
            if node >= num_internal:  # leaf node
                j = node - num_internal
                if j <= l:
                    continue
                obj_b = int(tree.leaf_order[j])
                if _overlap_counted(boxes[obj_a], boxes[obj_b], ops):
                    a, b = ids[obj_a], ids[obj_b]
                    pairs.append((a, b) if a <= b else (b, a))
                continue
            if tree.last[node] <= l:
                continue  # every covered leaf is at or before l
            if not _boxes_overlap(
                leaf_lo, leaf_hi, tree.node_lo[node], tree.node_hi[node]
            ):
                continue
            stack.append(tree.left[node])
            stack.append(tree.right[node])
    return BroadPhaseResult(pairs=sorted(pairs), ops=ops)
