"""Z-Overlap Test: FF-Stack traversal of sorted per-pixel lists.

Implements Section 3.5 / Figures 5-6 exactly:

* Each list is traversed front to back.
* A *front* face pushes its object id onto the FF-Stack with a cleared
  matched bit.
* A *back* face searches the stack for the **bottommost** entry with a
  matching id and a cleared matched bit (``Idm``).  Every entry strictly
  above ``Idm`` — matched or not — lies inside the interval
  ``(Idm, Ecur)``, so a pair ``<Idi, Idcur>`` is reported for each; then
  ``Idm``'s matched bit is set (entries are tagged, never popped, which
  lets later back-faces still see them).

Model decisions the paper leaves open (documented here and exercised by
tests):

* Pairs with ``Idi == Idcur`` (nested layers of one concave object) are
  filtered — the unit reports collisions *between different objects*.
* A back face with no unmatched matching front face (its front was
  clipped or lost to ZEB overflow) reports nothing.
* A push onto a full FF-Stack is dropped and counted.

:func:`analyze_tile` runs the algorithm over every list of a ZEB in
lock-step with numpy, over one tile's ZEB or a whole frame's.  Pairs
come out in the canonical order, ascending (element step, list row,
FF-Stack slot).  The hardware-literal walkers — one list at a time, and
all lists stepped in lock-step — are the test oracles in
``tests/rbcd/zoverlap_oracle.py``; the conformance suite holds
:func:`analyze_tile` bit-identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.config import RBCDConfig
from repro.rbcd.zeb import ZEBTile

# Figure-5 interference case ids, collapsed to what is observable at a
# single pair emission.  The six pictured configurations of two depth
# intervals A and B reduce to three outcomes per emitted (or absent)
# pair:
#
# * cases 1/6 (disjoint intervals) never emit — they are visible only
#   as a back-face *closure* that reports no pair (``disjoint_closures``
#   also counts the inner closure of a nested configuration, which
#   likewise emits nothing);
# * cases 2/5 (partially crossing intervals) emit at the close of the
#   interval that opened *first*, so the partner's front entry is still
#   unmatched on the FF-Stack;
# * cases 3/4 (one interval nested in the other) emit at the close of
#   the *outer* interval, after the inner one already closed, so the
#   partner's entry carries a set matched bit.
CASE_DISJOINT = 1
CASE_CROSSING = 2
CASE_NESTED = 3
CASE_NAMES = {
    CASE_DISJOINT: "disjoint",
    CASE_CROSSING: "crossing",
    CASE_NESTED: "nested",
}


@dataclass
class OverlapResult:
    """Pairs and activity from analyzing one pixel list or one tile.

    Pair arrays are parallel: ``pair_row[k]`` is the index of the list
    (within the analyzed tile) that produced pair k.  ``pair_case`` and
    ``pair_stack_depth`` are evidence for provenance recording; they are
    always computed (cheaply) so that enabling a recorder can never
    change detection behaviour.  ``list_tallies`` splits the four
    tallies by list (columns in field order: stack overflows, unmatched
    back faces, disjoint closures, filtered self-pairs), so a
    frame-wide traversal can be summed tile by tile.
    """

    pair_row: np.ndarray      # (K,) row index into the analyzed lists
    pair_id_a: np.ndarray     # (K,) the stacked front-face object (Idi)
    pair_id_b: np.ndarray     # (K,) the current back-face object (Idcur)
    pair_z_front: np.ndarray  # (K,) z code where Idi's surface starts
    pair_z_back: np.ndarray   # (K,) z code of Ecur
    pair_case: np.ndarray     # (K,) Figure-5 case id (CASE_*)
    pair_stack_depth: np.ndarray  # (K,) FF-Stack occupancy at emission
    elements_read: int = 0
    pair_records: int = 0     # output-buffer writes (== K)
    stack_overflows: int = 0  # dropped pushes (FF-Stack full)
    unmatched_backfaces: int = 0
    disjoint_closures: int = 0     # matched closures that emitted no pair
    self_pairs_filtered: int = 0   # Idi == Idcur emissions suppressed
    list_tallies: np.ndarray = field(default_factory=lambda: _no_tallies(0))

    @staticmethod
    def empty() -> "OverlapResult":
        z = np.empty(0, dtype=np.int64)
        return OverlapResult(
            z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), z.copy()
        )


def _no_tallies(num_lists: int) -> np.ndarray:
    """Zeroed (lists, 4) tally block; see :attr:`OverlapResult.list_tallies`."""
    return np.zeros((num_lists, 4), dtype=np.int64)


def _result(rows, id_a, id_b, zf, zb, cases, depths, elements, tallies):
    """Pack per-pair columns (lists or arrays) and per-list tallies."""
    overflows, unmatched, disjoint, self_filtered = tallies.sum(axis=0).tolist()
    rows, id_a, id_b, zf, zb, cases, depths = (
        np.asarray(column, dtype=np.int64)
        for column in (rows, id_a, id_b, zf, zb, cases, depths)
    )
    return OverlapResult(
        pair_row=rows,
        pair_id_a=id_a,
        pair_id_b=id_b,
        pair_z_front=zf,
        pair_z_back=zb,
        pair_case=cases,
        pair_stack_depth=depths,
        elements_read=elements,
        pair_records=len(rows),
        stack_overflows=overflows,
        unmatched_backfaces=unmatched,
        disjoint_closures=disjoint,
        self_pairs_filtered=self_filtered,
        list_tallies=tallies,
    )


def analyze_tile(zeb: ZEBTile, config: RBCDConfig) -> OverlapResult:
    """Vectorized Z-Overlap Test over every list of a ZEB.

    Traverses all lists in lock-step: iteration ``j`` analyzes element
    ``j`` of every list that still has one, so the Python-level loop
    runs ``max(list length)`` times regardless of how many lists (one
    tile's, or a whole frame's) the ZEB holds.
    """
    num_rows = zeb.non_empty_lists
    if num_rows == 0:
        return OverlapResult.empty()

    t_max = config.ff_stack_entries
    counts = zeb.counts

    stack_id = np.full((num_rows, t_max), -1, dtype=np.int64)
    stack_z = np.zeros((num_rows, t_max), dtype=np.int64)
    stack_matched = np.zeros((num_rows, t_max), dtype=bool)
    top = np.zeros(num_rows, dtype=np.int64)
    slot = np.arange(t_max, dtype=np.int64)
    tallies = _no_tallies(num_rows)

    out: list[tuple[np.ndarray, ...]] = []
    alive = np.arange(num_rows)
    for j in range(zeb.z_codes.shape[1]):
        alive = alive[counts[alive] > j]
        if alive.shape[0] == 0:
            break
        fronts = zeb.is_front[alive, j]
        ids = zeb.object_ids[alive, j]
        zj = zeb.z_codes[alive, j]

        # Front faces push (a full FF-Stack drops the push).
        pushed = alive[fronts]
        full = top[pushed] >= t_max
        tallies[pushed[full], 0] += 1  # stack overflows
        pushed = pushed[~full]
        tops = top[pushed]
        stack_id[pushed, tops] = ids[fronts][~full]
        stack_z[pushed, tops] = zj[fronts][~full]
        top[pushed] += 1

        back = ~fronts
        br = alive[back]
        if br.shape[0] == 0:
            continue
        back_ids = ids[back]
        # Only the slots below the highest top among these rows can hold
        # an entry; searching just those gives the same answers.
        width = int(top[br].max())
        slots = slot[:width]
        valid = slots[None, :] < top[br, None]
        eq = (
            (stack_id[br, :width] == back_ids[:, None])
            & ~stack_matched[br, :width]
            & valid
        )
        found = eq.any(axis=1)
        tallies[br[~found], 1] += 1  # unmatched back faces
        if not found.any():
            continue
        # Bottommost unmatched match; every entry above it pairs.
        fr = br[found]
        m = eq[found].argmax(axis=1)
        hr, hs = np.nonzero((slots[None, :] > m[:, None]) & valid[found])
        kr = fr[hr]
        id_i = stack_id[kr, hs]
        id_cur = back_ids[found][hr]
        keep = id_i != id_cur
        tallies[fr, 3] += np.bincount(hr[~keep], minlength=fr.shape[0])  # self-pairs
        emitted = np.bincount(hr[keep], minlength=fr.shape[0])
        tallies[fr[emitted == 0], 2] += 1  # disjoint closures
        kr, ks = kr[keep], hs[keep]
        if kr.shape[0]:
            # Evidence: the partner's matched bit is read before this
            # closure tags its own entry below.
            out.append((
                kr,
                id_i[keep],
                id_cur[keep],
                stack_z[kr, ks],
                zj[back][found][hr[keep]],
                np.where(stack_matched[kr, ks], CASE_NESTED, CASE_CROSSING),
                top[kr],
            ))
        stack_matched[fr, m] = True

    pairs = (
        [np.concatenate(column) for column in zip(*out)]
        if out
        else [np.empty(0, dtype=np.int64) for _ in range(7)]
    )
    return _result(*pairs, int(counts.sum()), tallies)
