"""Hardware-literal Z-Overlap Test walkers (Section 3.5, Figures 5-6).

The executable specification :func:`repro.rbcd.overlap.analyze_tile`
is held to, kept as a test oracle: :func:`analyze_pixel_list` walks one
sorted list with its own FF-Stack; :func:`traverse_lists_sequential`
walks every list of a ZEB in lock-step, which defines the canonical
pair emission order, and has ``analyze_tile``'s signature, so the
``reference_kernels`` fixture (``tests/conftest.py``) can put it in
the pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import RBCDConfig
from repro.rbcd.overlap import (
    CASE_CROSSING,
    CASE_NESTED,
    OverlapResult,
    _result,
)
from repro.rbcd.zeb import ZEBTile


def analyze_pixel_list(
    z_codes,
    object_ids,
    is_front,
    config: RBCDConfig,
) -> OverlapResult:
    """Reference implementation for a single pixel's sorted list."""
    stack_id: list[int] = []
    stack_z: list[int] = []
    stack_matched: list[bool] = []
    t_max = config.ff_stack_entries

    rows, id_a, id_b, zf, zb = [], [], [], [], []
    cases: list[int] = []
    depths: list[int] = []
    overflows = 0
    unmatched = 0
    disjoint = 0
    self_filtered = 0

    n = len(z_codes)
    for k in range(n):
        oid = int(object_ids[k])
        if is_front[k]:
            if len(stack_id) >= t_max:
                overflows += 1
                continue
            stack_id.append(oid)
            stack_z.append(int(z_codes[k]))
            stack_matched.append(False)
            continue
        # Back face: bottommost unmatched entry with the same id.
        m = -1
        for i, (sid, sm) in enumerate(zip(stack_id, stack_matched)):
            if sid == oid and not sm:
                m = i
                break
        if m < 0:
            unmatched += 1
            continue
        emitted_before = len(id_a)
        for i in range(m + 1, len(stack_id)):
            if stack_id[i] == oid:
                self_filtered += 1
                continue  # self-pair filtered
            rows.append(0)
            id_a.append(stack_id[i])
            id_b.append(oid)
            zf.append(stack_z[i])
            zb.append(int(z_codes[k]))
            cases.append(
                CASE_NESTED if stack_matched[i] else CASE_CROSSING
            )
            depths.append(len(stack_id))
        if len(id_a) == emitted_before:
            disjoint += 1
        stack_matched[m] = True

    tallies = np.array(
        [[overflows, unmatched, disjoint, self_filtered]], dtype=np.int64
    )
    return _result(rows, id_a, id_b, zf, zb, cases, depths, n, tallies)


def traverse_lists_sequential(zeb: ZEBTile, config: RBCDConfig) -> OverlapResult:
    """Hardware-literal Z-Overlap Test over every list of a ZEB.

    Each list owns its FF-Stack and is traversed exactly as
    :func:`analyze_pixel_list` traverses one list, but the lists
    advance *in lock-step*: step ``j`` processes element ``j`` of every
    list that still has one (the hardware walks all lists of a tile in
    parallel).  Pairs are therefore emitted in the canonical order —
    ascending ``(element step, list row, FF-Stack slot)`` — which is
    the order :func:`~repro.rbcd.overlap.analyze_tile` produces.  A
    frame-wide ZEB (tiles in schedule order) yields every tile's pairs
    in that order once they are regrouped by tile with a stable sort.
    """
    num_rows = zeb.non_empty_lists
    if num_rows == 0:
        return OverlapResult.empty()

    t_max = config.ff_stack_entries
    counts = zeb.counts.tolist()
    object_ids = zeb.object_ids.tolist()
    z_codes = zeb.z_codes.tolist()
    is_front = zeb.is_front.tolist()

    stack_id: list[list[int]] = [[] for _ in range(num_rows)]
    stack_z: list[list[int]] = [[] for _ in range(num_rows)]
    stack_matched: list[list[bool]] = [[] for _ in range(num_rows)]
    # Per list: stack overflows, unmatched back faces, disjoint
    # closures, filtered self-pairs.
    tallies = [[0, 0, 0, 0] for _ in range(num_rows)]

    rows, id_a, id_b, zf, zb = [], [], [], [], []
    cases: list[int] = []
    depths: list[int] = []

    alive = list(range(num_rows))
    for j in range(max(counts)):
        alive = [row for row in alive if j < counts[row]]
        for row in alive:
            oid = object_ids[row][j]
            z_code = z_codes[row][j]
            sid = stack_id[row]
            smatched = stack_matched[row]
            if is_front[row][j]:
                if len(sid) >= t_max:
                    tallies[row][0] += 1
                    continue
                sid.append(oid)
                stack_z[row].append(z_code)
                smatched.append(False)
                continue
            # Back face: bottommost unmatched entry with the same id.
            m = -1
            for i in range(len(sid)):
                if sid[i] == oid and not smatched[i]:
                    m = i
                    break
            if m < 0:
                tallies[row][1] += 1
                continue
            emitted_before = len(id_a)
            for i in range(m + 1, len(sid)):
                if sid[i] == oid:
                    tallies[row][3] += 1
                    continue  # self-pair filtered
                rows.append(row)
                id_a.append(sid[i])
                id_b.append(oid)
                zf.append(stack_z[row][i])
                zb.append(z_code)
                cases.append(CASE_NESTED if smatched[i] else CASE_CROSSING)
                depths.append(len(sid))
            if len(id_a) == emitted_before:
                tallies[row][2] += 1
            smatched[m] = True

    return _result(
        rows, id_a, id_b, zf, zb, cases, depths, sum(counts),
        np.array(tallies, dtype=np.int64),
    )
