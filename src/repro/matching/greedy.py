"""Vectorised greedy assignment.

Repeatedly selects the globally cheapest remaining (row, column) pair and
commits it.  This is the classic greedy heuristic for the assignment problem;
it is not optimal, but it is extremely fast (a handful of numpy reductions per
committed pair) and — because adjacency blocks are very sparse and fault maps
are mostly empty — it almost always finds a zero-cost or near-zero-cost
row permutation in the FARe use case.  The ablation benchmark
(`benchmarks/test_bench_ablation_matching.py`) quantifies the gap to the exact
Hungarian solution and to b-Suitor.

Performance model: the historical implementation copied the full matrix once
and then ran every argmin over all ``n_rows × n_cols`` entries with committed
rows/columns overwritten by ``inf`` — Θ(n·n·m) element visits plus the copy
churn.  The current implementation keeps index arrays of the still-unassigned
rows and columns and scans only that shrinking submatrix, ~Σ(n-k)(m-k) ≈ n·n·m/3
visits with no full-matrix writes.  Selection order is unchanged: a
row-major argmin over the remaining submatrix picks the same first-minimum as
a row-major argmin over the ``inf``-masked full matrix, because dropping rows
and columns preserves the relative row-major order of the surviving entries.
``greedy_assignment_batch`` applies the same schedule to a whole stack of
cost matrices at once (one vectorised argmin per committed pair across all
problems) and is the engine behind the batched mapping cost computation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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

    Returns
    -------
    assignments:
        ``(num_problems, n_rows)`` integer array; row ``p`` is exactly what
        ``greedy_assignment(cost[p])[0]`` would return.
    totals:
        ``(num_problems,)`` float array of the matching totals, accumulated in
        the same per-pair selection order as the scalar function (so the
        results are bit-identical, not merely close).

    Every iteration commits one (row, column) pair *per problem* with a single
    vectorised argmin over the stack; ``np.argmin`` returns the first minimum
    in row-major order, matching the scalar function's tie-breaking.

    An integer-dtype ``cost`` (the engine passes one whenever ``sa1_weight``
    is integral, making every entry an exact small integer) is solved on an
    ``int32`` work array with an ``INT32_MAX`` sentinel — half the memory
    traffic of float64 with bit-identical selection, since the values are the
    same integers under either representation.
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
    int32_info = np.iinfo(np.int32)
    if (
        np.issubdtype(cost.dtype, np.integer)
        and cost.size
        and cost.min() >= int32_info.min
        and cost.max() < int32_info.max  # strict: the sentinel must dominate
    ):
        work = cost.astype(np.int32)
        masked_value = int32_info.max
    else:
        # The scalar function casts to float64 unconditionally, so this is
        # the equivalence-preserving fallback for any other input.
        cost = cost.astype(np.float64, copy=False)
        work = cost.copy()
        masked_value = np.inf
    assignments = -np.ones((num_problems, n_rows), dtype=np.int64)
    totals = np.zeros(num_problems, dtype=np.float64)
    problem_ids = np.arange(num_problems)
    # On the int32 path every live entry is below the sentinel, so argmin
    # always lands on a live cell; only float costs can tie with it.
    sentinel_can_tie = masked_value == np.inf
    row_dead = np.zeros((num_problems, n_rows), dtype=bool)
    col_dead = np.zeros((num_problems, n_cols), dtype=bool)
    for _ in range(n_rows):
        flat = work.reshape(num_problems, -1).argmin(axis=1)
        rows = flat // n_cols
        cols = flat % n_cols
        if sentinel_can_tie:
            # With real inf costs the sentinel no longer dominates and argmin
            # can land on an already-committed cell; the scalar function
            # would pick the first *remaining* cell instead (everything left
            # ties at inf).
            invalid = np.flatnonzero(
                row_dead[problem_ids, rows] | col_dead[problem_ids, cols]
            )
            if invalid.size:
                alive = (
                    ~row_dead[invalid, :, None] & ~col_dead[invalid, None, :]
                ).reshape(invalid.size, -1)
                first_alive = alive.argmax(axis=1)
                rows[invalid] = first_alive // n_cols
                cols[invalid] = first_alive % n_cols
            row_dead[problem_ids, rows] = True
            col_dead[problem_ids, cols] = True
        totals += cost[problem_ids, rows, cols]
        assignments[problem_ids, rows] = cols
        work[problem_ids, rows, :] = masked_value
        work[problem_ids, :, cols] = masked_value
    return assignments, totals
