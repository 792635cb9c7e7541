"""Vectorised greedy assignment.

Repeatedly selects the globally cheapest remaining (row, column) pair and
commits it.  This is the classic greedy heuristic for the assignment problem;
it is not optimal, but it is extremely fast and — because adjacency blocks are
very sparse and fault maps are mostly empty — it almost always finds a
zero-cost or near-zero-cost row permutation in the FARe use case.  The
ablation benchmark (`benchmarks/test_bench_ablation_matching.py`) quantifies
the gap to the exact Hungarian solution and to b-Suitor.

:func:`greedy_assignment` is the per-problem definition.  It keeps index
arrays of the still-unassigned rows and columns and runs one row-major argmin
over that shrinking submatrix per committed pair.  Dropping committed rows
and columns preserves the relative row-major order of the surviving entries,
so each argmin picks the same first minimum as an argmin over the full matrix
with committed rows and columns masked out.

:func:`greedy_assignment_batch` solves a whole ``(P, R, C)`` stack, the
engine behind the batched mapping cost computation.  It makes the same picks
in two phases instead of ``R`` argmins over the whole stack:

1. **Minimum row pass.**  Let ``m`` be a problem's minimum entry.  Rows are
   visited in increasing order, and each takes its first still-free column
   whose cost equals ``m`` — vectorised across the stack, ``R`` steps of
   ``O(P·C)`` that only read the input.  These are exactly the greedy's first
   picks: while a free entry at ``m`` remains, the row-major first minimum
   lies in the lowest live row that still has one, at that row's lowest such
   free column; and a row with no free entry at ``m`` at its turn never gains
   one later, because columns only die.  Mapping cost matrices are mostly
   zeros with minimum 0, so this pass commits most rows.
2. **Remainder loop.**  The surviving rows and columns of each problem are
   gathered in their original relative order (so, as above, the selection
   order is unchanged) and solved by the one-argmin-per-commit loop.
   Problems are sorted by remainder size and solved in chunks of
   :data:`_REMAINDER_CHUNK`, each padded with the masked sentinel; padded rows
   and columns count as committed from the start.

Totals are accumulated in selection order — the phase-1 picks, then the
remainder picks step by step — so they are bit-identical to the scalar
function's, float inputs included.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Problems per remainder-loop chunk.  Each chunk's work array is padded to
#: its largest remainder and scanned once per commit, so chunks of similarly
#: sized remainders stay small enough to sit in cache and waste little on
#: padding.
_REMAINDER_CHUNK = 32


def greedy_assignment(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Greedy global-minimum assignment on a rectangular cost matrix.

    Parameters
    ----------
    cost:
        ``(n_rows, n_cols)`` cost matrix with ``n_rows <= n_cols``.

    Returns
    -------
    assignment:
        Integer array of length ``n_rows``; ``assignment[i]`` is the column
        assigned to row ``i`` (all distinct).
    total_cost:
        Sum of the selected entries.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-D, got {cost.ndim}-D")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(
            f"cost must have at least as many columns as rows, got {cost.shape}"
        )

    remaining_rows = np.arange(n_rows, dtype=np.int64)
    remaining_cols = np.arange(n_cols, dtype=np.int64)
    assignment = -np.ones(n_rows, dtype=np.int64)
    total = 0.0
    for _ in range(n_rows):
        sub = cost[remaining_rows[:, None], remaining_cols]
        flat_index = int(np.argmin(sub))
        local_row, local_col = divmod(flat_index, remaining_cols.size)
        row = int(remaining_rows[local_row])
        col = int(remaining_cols[local_col])
        total += cost[row, col]
        assignment[row] = col
        remaining_rows = np.delete(remaining_rows, local_row)
        remaining_cols = np.delete(remaining_cols, local_col)
    return assignment, float(total)


def greedy_assignment_batch(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run :func:`greedy_assignment` on a whole stack of cost matrices at once.

    Parameters
    ----------
    cost:
        ``(num_problems, n_rows, n_cols)`` stack with ``n_rows <= n_cols``.
        It is only read; it is copied only when it must be cast to float64
        (see below).

    Returns
    -------
    assignments:
        ``(num_problems, n_rows)`` integer array; row ``p`` is exactly what
        ``greedy_assignment(cost[p])[0]`` would return.
    totals:
        ``(num_problems,)`` float array of the matching totals, accumulated in
        the same per-pair selection order as the scalar function (so the
        results are bit-identical, not merely close).

    See the module docstring for the two phases and why they make the same
    picks.  An integer-dtype ``cost`` whose values fit ``int32`` (the engine
    passes one whenever ``sa1_weight`` is integral, making every entry an
    exact small integer) keeps its exact values and runs the remainder loop on
    ``int32`` work arrays with an ``INT32_MAX`` sentinel; any other input is
    cast to float64, as the scalar function does, and masked with ``inf``.
    """
    cost = np.asarray(cost)
    if cost.ndim != 3:
        raise ValueError(f"cost stack must be 3-D, got {cost.ndim}-D")
    num_problems, n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(
            f"cost must have at least as many columns as rows, got {cost.shape[1:]}"
        )
    if num_problems == 0 or n_rows == 0:
        return (
            np.empty((num_problems, n_rows), dtype=np.int64),
            np.zeros(num_problems, dtype=np.float64),
        )
    minima = cost.reshape(num_problems, -1).min(axis=1)
    int32_info = np.iinfo(np.int32)
    if (
        np.issubdtype(cost.dtype, np.integer)
        and minima.min() >= int32_info.min
        and cost.max() < int32_info.max  # strict: the sentinel must dominate
    ):
        work_dtype, masked_value = np.int32, int32_info.max
    else:
        # The scalar function casts to float64 unconditionally, so this is
        # the equivalence-preserving path for any other input (the cast is
        # monotonic, so the minima carry over).
        cost = cost.astype(np.float64, copy=False)
        minima = minima.astype(np.float64)
        work_dtype, masked_value = np.float64, np.inf

    # Phase 1: the row pass at each problem's minimum.  ``n_rows`` spare
    # columns, equal to the minimum everywhere, follow the real ones: a row
    # with no free real column at the minimum takes the first free spare
    # instead, so every row commits exactly one column and the pass is three
    # array operations per row.
    problem_ids = np.arange(num_problems)
    is_min = np.ones((num_problems, n_rows, n_cols + n_rows), dtype=bool)
    np.equal(cost, minima[:, None, None], out=is_min[:, :, :n_cols])
    col_free = np.ones((num_problems, n_cols + n_rows), dtype=bool)
    hit = np.empty_like(col_free)
    picks = np.empty((n_rows, num_problems), dtype=np.intp)
    for row in range(n_rows):
        np.logical_and(is_min[:, row], col_free, out=hit)
        hit.argmax(axis=1, out=picks[row])
        col_free[problem_ids, picks[row]] = False
    took = picks < n_cols
    assignments = np.where(took.T, picks.T, -1).astype(np.int64, copy=False)
    col_free = col_free[:, :n_cols]
    # Each phase-1 pick adds ``m`` to the problem's total.  ``running[k]`` is
    # 0.0 plus ``m`` added ``k`` times in sequence, the scalar function's
    # running total after ``k`` such picks (an entry equal to ``m`` can differ
    # from it only in the sign of a zero, which a sum starting at +0.0 never
    # takes).
    picked = took.sum(axis=0)
    running = np.zeros((n_rows + 1, num_problems), dtype=np.float64)
    running[1:] = minima
    np.add.accumulate(running, axis=0, out=running)
    totals = running[picked, problem_ids]

    # Phase 2: the argmin loop over each problem's compacted remainder.
    remainder = n_rows - picked
    order = np.argsort(-remainder, kind="stable")
    order = order[: np.count_nonzero(remainder)]
    for start in range(0, order.size, _REMAINDER_CHUNK):
        chunk = order[start : start + _REMAINDER_CHUNK]
        _solve_remainders(
            cost,
            chunk,
            remainder[chunk],
            assignments,
            col_free,
            totals,
            work_dtype,
            masked_value,
        )
    return assignments, totals


def _solve_remainders(
    cost: np.ndarray,
    chunk: np.ndarray,
    sizes: np.ndarray,
    assignments: np.ndarray,
    col_free: np.ndarray,
    totals: np.ndarray,
    work_dtype: type,
    masked_value: float,
) -> None:
    """Finish the problems ``chunk`` (remainder ``sizes``, non-increasing).

    Gathers each problem's live rows and columns in their original order into
    one padded work array and commits one pair per problem per step with a
    row-major argmin, writing into ``assignments`` and ``totals``.
    """
    n_rows, n_cols = cost.shape[1:]
    num = chunk.size
    rows_left = int(sizes[0])
    cols_left = rows_left + n_cols - n_rows
    # A stable sort of the "committed" flags lists the live indices first,
    # in their original order; the tail past each problem's own size is
    # padding.
    row_index = np.argsort(assignments[chunk] >= 0, axis=1, kind="stable")
    row_index = row_index[:, :rows_left]
    col_index = np.argsort(~col_free[chunk], axis=1, kind="stable")
    col_index = col_index[:, :cols_left]
    work = cost[chunk[:, None, None], row_index[:, :, None], col_index[:, None, :]]
    work = work.astype(work_dtype, copy=False)
    row_dead = np.arange(rows_left) >= sizes[:, None]
    col_dead = np.arange(cols_left) >= (sizes + (n_cols - n_rows))[:, None]
    work[row_dead] = masked_value
    work.transpose(0, 2, 1)[col_dead] = masked_value
    # On the int32 path every live entry is below the sentinel, so argmin
    # always lands on a live cell; only float costs can tie with it.
    sentinel_can_tie = masked_value == np.inf
    active = num
    for step in range(rows_left):
        while sizes[active - 1] <= step:
            active -= 1
        live = work[:active]
        ids = np.arange(active)
        flat = live.reshape(active, -1).argmin(axis=1)
        rows = flat // cols_left
        cols = flat % cols_left
        if sentinel_can_tie:
            # With real inf costs the sentinel no longer dominates and argmin
            # can land on a committed or padded cell; the scalar function
            # would pick the first *remaining* cell instead (everything left
            # ties at inf).
            invalid = np.flatnonzero(row_dead[ids, rows] | col_dead[ids, cols])
            if invalid.size:
                alive = (
                    ~row_dead[invalid, :, None] & ~col_dead[invalid, None, :]
                ).reshape(invalid.size, -1)
                first_alive = alive.argmax(axis=1)
                rows[invalid] = first_alive // cols_left
                cols[invalid] = first_alive % cols_left
            row_dead[ids, rows] = True
            col_dead[ids, cols] = True
        problems = chunk[:active]
        totals[problems] += live[ids, rows, cols]
        assignments[problems, row_index[ids, rows]] = col_index[ids, cols]
        live[ids, rows, :] = masked_value
        live[ids, :, cols] = masked_value
