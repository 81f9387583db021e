"""ProvRC: the lineage compression algorithm (Section IV of the paper).

The algorithm has two passes over the sorted lineage relation:

1. **Multi-attribute range encoding over the value attributes** (the input
   axes of a backward table).  Rows that agree on every other attribute and
   are contiguous on one value attribute are collapsed into a single row
   whose value attribute becomes a closed interval.

2. **Relative value transformation + range encoding over the key
   attributes** (the output axes of a backward table).  For every value
   attribute the algorithm considers two candidate encodings while scanning
   key-contiguous rows: keep the attribute's current (absolute) encoding if
   it is constant across the run, or switch to a *delta* relative to the key
   attribute being merged if that delta is constant across the run.  Runs
   where every value attribute has at least one constant candidate are
   collapsed, exactly mirroring the paper's "non-empty subset of
   ``{a_i, a_i b_1, ..., a_i b_l}`` with the same value" condition.

Both passes are implemented with vectorized numpy primitives end to end.
The greedy run scan of the key pass is resolved with pointer doubling over
precomputed run lengths (``O(log n)`` vectorized rounds instead of one
Python iteration per run), so compression of million-edge relations is
bounded by numpy throughput rather than the interpreter.  The original
sequential scan survives as :func:`repro.core._reference.key_range_pass_reference`
and the equivalence tests assert identical output tables.

The same routine builds both orientations: ``key="output"`` produces the
backward table (predicates push down on output indices) and ``key="input"``
produces the forward table of Section IV.C.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .compressed import KIND_ABS, KIND_REL, CompressedLineage
from .relation import LineageRelation

__all__ = ["compress", "compress_both", "reorient", "ProvRCStats"]


class ProvRCStats:
    """Book-keeping emitted by :func:`compress` (row counts per stage)."""

    def __init__(self) -> None:
        self.input_rows = 0
        self.after_value_pass = 0
        self.after_key_pass = 0

    def as_dict(self) -> dict:
        return {
            "input_rows": self.input_rows,
            "after_value_pass": self.after_value_pass,
            "after_key_pass": self.after_key_pass,
        }


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def compress(
    relation: LineageRelation,
    key: str = "output",
    relative: bool = True,
    stats: Optional[ProvRCStats] = None,
) -> CompressedLineage:
    """Compress a lineage relation with ProvRC.

    Parameters
    ----------
    relation:
        The uncompressed cell-level lineage.
    key:
        ``"output"`` builds the backward table (output attributes absolute),
        ``"input"`` builds the forward table (input attributes absolute).
    relative:
        Disable to skip the relative value transformation (ablation); the
        key pass then only merges runs whose value attributes are constant.
    stats:
        Optional :class:`ProvRCStats` collector.
    """
    if key not in ("output", "input"):
        raise ValueError("key must be 'output' or 'input'")
    if relation.out_ndim == 0 or relation.in_ndim == 0:
        raise ValueError("ProvRC requires arrays with at least one axis; "
                         "reshape scalars to shape (1,) before capture")

    deduped = relation.deduplicated()
    l = deduped.out_ndim
    if key == "output":
        key_cols = deduped.rows[:, :l]
        val_cols = deduped.rows[:, l:]
    else:
        key_cols = deduped.rows[:, l:]
        val_cols = deduped.rows[:, :l]

    if stats is None:
        stats = ProvRCStats()
    stats.input_rows = len(deduped)

    klo, khi, vlo, vhi = _value_range_pass(key_cols, val_cols)
    stats.after_value_pass = klo.shape[0]

    vkind = np.zeros(vlo.shape, dtype=np.int8)
    vref = np.full(vlo.shape, -1, dtype=np.int16)
    klo, khi, vkind, vref, vlo, vhi = _key_range_pass(
        klo, khi, vkind, vref, vlo, vhi, relative=relative
    )
    stats.after_key_pass = klo.shape[0]

    return CompressedLineage(
        key_side=key,
        out_name=relation.out_name,
        in_name=relation.in_name,
        out_shape=relation.out_shape,
        in_shape=relation.in_shape,
        key_lo=klo,
        key_hi=khi,
        val_kind=vkind,
        val_ref=vref,
        val_lo=vlo,
        val_hi=vhi,
        out_axes=relation.out_axes,
        in_axes=relation.in_axes,
    )


def compress_both(relation: LineageRelation, relative: bool = True) -> Tuple[CompressedLineage, CompressedLineage]:
    """Return ``(backward_table, forward_table)`` for a relation."""
    relation = relation.deduplicated()  # the second compress pays only the sortedness check
    return (
        compress(relation, key="output", relative=relative),
        compress(relation, key="input", relative=relative),
    )


def reorient(table: CompressedLineage) -> CompressedLineage:
    """Build the other orientation of *table*: decompress to the cell
    relation, then re-compress keyed on the opposite side.

    Serves reused tables (which arrive backward only), scrub's rebuild of a
    damaged orientation and the legacy ``.provrc`` import.  ``compress`` is
    resolved through this module's globals at call time, so a wrapper
    installed on ``repro.core.provrc.compress`` covers reorientation too.
    """
    key = "input" if table.key_side == "output" else "output"
    return compress(table.decompress(), key=key)


# ----------------------------------------------------------------------
# pass 1: multi-attribute range encoding over value attributes
# ----------------------------------------------------------------------
def _value_range_pass(
    key_cols: np.ndarray, val_cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range-encode each value attribute, last to first.

    Returns ``(key_lo, key_hi, val_lo, val_hi)`` where key intervals are
    still degenerate (``lo == hi``) and value attributes have become
    closed intervals.
    """
    n = key_cols.shape[0]
    nkey = key_cols.shape[1]
    nval = val_cols.shape[1]
    # the pass only compares and regroups, so narrow input columns stay at
    # their width; contiguity is probed with an explicitly-int64 subtract
    klo = np.array(key_cols)
    khi = np.array(key_cols)
    vlo = np.array(val_cols)
    vhi = np.array(val_cols)
    if n == 0:
        return klo, khi, vlo, vhi

    for vi in range(nval - 1, -1, -1):
        # Sort so rows agreeing on every other attribute are adjacent and
        # ordered by the attribute being encoded.
        sort_cols: List[np.ndarray] = [vlo[:, vi]]
        for j in range(nval - 1, -1, -1):
            if j == vi:
                continue
            sort_cols.append(vhi[:, j])
            sort_cols.append(vlo[:, j])
        for j in range(nkey - 1, -1, -1):
            sort_cols.append(klo[:, j])
        order = np.lexsort(sort_cols)
        klo, khi, vlo, vhi = klo[order], khi[order], vlo[order], vhi[order]

        same_other = np.ones(klo.shape[0], dtype=bool)
        same_other[0] = False
        for j in range(nkey):
            same_other[1:] &= klo[1:, j] == klo[:-1, j]
        for j in range(nval):
            if j == vi:
                continue
            same_other[1:] &= vlo[1:, j] == vlo[:-1, j]
            same_other[1:] &= vhi[1:, j] == vhi[:-1, j]
        contiguous = np.zeros(klo.shape[0], dtype=bool)
        # int64 subtract: ``hi + 1`` would wrap at a narrow dtype's ceiling
        contiguous[1:] = np.subtract(vlo[1:, vi], vhi[:-1, vi], dtype=np.int64) == 1

        new_run = ~(same_other & contiguous)
        new_run[0] = True
        firsts = np.flatnonzero(new_run)
        lasts = np.append(firsts[1:] - 1, klo.shape[0] - 1)

        run_hi = vhi[lasts, vi]
        klo, khi = klo[firsts], khi[firsts]
        vlo, vhi = vlo[firsts], vhi[firsts].copy()
        vhi[:, vi] = run_hi

    return klo, khi, vlo, vhi


# ----------------------------------------------------------------------
# pass 2: relative value transformation + key range encoding
# ----------------------------------------------------------------------
def _run_lengths(flags: np.ndarray) -> np.ndarray:
    """For each position ``p`` return how many consecutive ``True`` values
    start at ``p`` (0 if ``flags[p]`` is ``False``)."""
    n = flags.shape[0]
    positions = np.arange(n)
    false_pos = np.flatnonzero(~flags)
    if false_pos.size == 0:
        return n - positions
    idx = np.searchsorted(false_pos, positions, side="left")
    clamped = np.minimum(idx, false_pos.shape[0] - 1)
    next_false = np.where(idx < false_pos.shape[0], false_pos[clamped], n)
    return next_false - positions


def _greedy_scan_starts(jump: np.ndarray) -> np.ndarray:
    """Positions visited starting from 0 under ``s -> jump[s]`` (``jump[s] > s``).

    This resolves the greedy run scan without a per-run Python loop: the
    scan's next start position is a function of the current one, so the set
    of visited positions is the orbit of 0, computed here with pointer
    doubling — ``ceil(log2(n + 1))`` rounds of vectorized composition
    instead of one interpreted iteration per emitted row.
    """
    n = jump.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    hop = np.empty(n + 1, dtype=np.int64)
    np.minimum(jump, n, out=hop[:n])
    hop[n] = n  # absorbing sentinel
    visited = np.zeros(n + 1, dtype=bool)
    visited[0] = True
    span = 1
    while span <= n:
        # invariant: visited holds the orbit prefix of < span steps and hop
        # advances by span steps, so each round doubles the covered prefix
        visited[hop[visited]] = True
        hop = hop[hop]
        span *= 2
    return np.flatnonzero(visited[:n])


def _key_range_pass(
    klo: np.ndarray,
    khi: np.ndarray,
    vkind: np.ndarray,
    vref: np.ndarray,
    vlo: np.ndarray,
    vhi: np.ndarray,
    relative: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range-encode each key attribute, introducing relative value attributes."""
    nkey = klo.shape[1]
    nval = vlo.shape[1]
    if klo.shape[0] == 0:
        return klo, khi, vkind, vref, vlo, vhi
    if relative and vlo.dtype != np.int64:
        # delta encoding stores value - key differences, which can exceed
        # the narrow input dtype's range in either direction: this is the
        # pass's arithmetic-overflow boundary, so the value columns (where
        # deltas land) are upcast here; key columns stay narrow throughout
        vlo = vlo.astype(np.int64)
        vhi = vhi.astype(np.int64)

    for kj in range(nkey - 1, -1, -1):
        n = klo.shape[0]
        # Sort: group rows by the other key attributes, then order by the
        # attribute being merged; value columns break remaining ties so the
        # scan is deterministic.
        sort_cols: List[np.ndarray] = []
        for j in range(nval - 1, -1, -1):
            sort_cols.append(vhi[:, j])
            sort_cols.append(vlo[:, j])
            sort_cols.append(vref[:, j].astype(np.int64))
            sort_cols.append(vkind[:, j].astype(np.int64))
        sort_cols.append(klo[:, kj])
        for j in range(nkey - 1, -1, -1):
            if j == kj:
                continue
            sort_cols.append(khi[:, j])
            sort_cols.append(klo[:, j])
        order = np.lexsort(sort_cols)
        klo, khi = klo[order], khi[order]
        vkind, vref = vkind[order], vref[order]
        vlo, vhi = vlo[order], vhi[order]

        base_ok = np.ones(n, dtype=bool)
        base_ok[0] = False
        for j in range(nkey):
            if j == kj:
                continue
            base_ok[1:] &= klo[1:, j] == klo[:-1, j]
            base_ok[1:] &= khi[1:, j] == khi[:-1, j]
        # int64 subtract: ``hi + 1`` would wrap at a narrow dtype's ceiling
        base_ok[1:] &= np.subtract(klo[1:, kj], khi[:-1, kj], dtype=np.int64) == 1

        keep_eq = np.zeros((nval, n), dtype=bool)
        delta_eq = np.zeros((nval, n), dtype=bool)
        for i in range(nval):
            keep_eq[i, 1:] = (
                (vkind[1:, i] == vkind[:-1, i])
                & (vref[1:, i] == vref[:-1, i])
                & (vlo[1:, i] == vlo[:-1, i])
                & (vhi[1:, i] == vhi[:-1, i])
            )
            if relative:
                both_abs = (vkind[1:, i] == KIND_ABS) & (vkind[:-1, i] == KIND_ABS)
                dlo_cur = vlo[1:, i] - klo[1:, kj]
                dlo_prev = vlo[:-1, i] - klo[:-1, kj]
                dhi_cur = vhi[1:, i] - klo[1:, kj]
                dhi_prev = vhi[:-1, i] - klo[:-1, kj]
                delta_eq[i, 1:] = both_abs & (dlo_cur == dlo_prev) & (dhi_cur == dhi_prev)

        base_run = _run_lengths(base_ok)
        keep_run = [_run_lengths(keep_eq[i]) for i in range(nval)]
        delta_run = [_run_lengths(delta_eq[i]) for i in range(nval)]

        # Maximal collapsible run length starting at each row: bounded by the
        # key-contiguity run and, per value attribute, by the better of the
        # two candidate encodings (keep absolute vs switch to delta).  The
        # length is 0 exactly where no merge can start (can_merge is false at
        # the following row), so the greedy scan reduces to jumping
        # run_length + 1 rows ahead from each emitted row.
        run_length = np.zeros(n, dtype=np.int64)
        if n > 1:
            best = base_run[1:].copy()
            for i in range(nval):
                np.minimum(best, np.maximum(keep_run[i][1:], delta_run[i][1:]), out=best)
            run_length[:-1] = best

        starts = _greedy_scan_starts(np.arange(n, dtype=np.int64) + run_length + 1)
        length = run_length[starts]
        ends = starts + length

        # advanced indexing copies, so the in-place edits below are safe
        new_klo, new_khi = klo[starts], khi[starts]
        new_vkind, new_vref = vkind[starts], vref[starts]
        new_vlo, new_vhi = vlo[starts], vhi[starts]
        new_khi[:, kj] = khi[ends, kj]

        collapsed = length > 0
        if collapsed.any():
            succ = np.minimum(starts + 1, n - 1)  # valid wherever collapsed
            for i in range(nval):
                # keep the current encoding when it is constant across the
                # run; otherwise switch to the delta relative to attribute kj
                switch = collapsed & (keep_run[i][succ] < length)
                if switch.any():
                    rows = starts[switch]
                    new_vkind[switch, i] = KIND_REL
                    new_vref[switch, i] = kj
                    new_vlo[switch, i] = vlo[rows, i] - klo[rows, kj]
                    new_vhi[switch, i] = vhi[rows, i] - klo[rows, kj]

        klo, khi = new_klo, new_khi
        vkind, vref = new_vkind, new_vref
        vlo, vhi = new_vlo, new_vhi

    return klo, khi, vkind, vref, vlo, vhi
