"""Seed matching loops: references for ``matching.hungarian`` and ``matching.greedy``."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def seed_hungarian_assignment(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Dual-potential JV solve that updates ``u``/``v`` in place every step.

    Each step rebuilds the free-column index list and shifts the potentials
    of every used column and its row through fancy indexing.  The production
    :func:`repro.matching.hungarian.hungarian_assignment` does the same
    additions in the same order, on compact copies of the alternating tree's
    potentials, and must return the same assignment and total bit for bit.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    p = np.zeros(n_cols + 1, dtype=np.int64)
    for i in range(1, n_rows + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n_cols + 1, np.inf)
        used = np.zeros(n_cols + 1, dtype=bool)
        way = np.zeros(n_cols + 1, dtype=np.int64)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used
            free[0] = False
            cols = np.flatnonzero(free)
            cur = cost[i0 - 1, cols - 1] - u[i0] - v[cols]
            better = cur < minv[cols]
            minv[cols] = np.where(better, cur, minv[cols])
            way[cols[better]] = j0
            best_idx = int(np.argmin(minv[cols]))
            delta = minv[cols][best_idx]
            j1 = int(cols[best_idx])
            used_idx = np.flatnonzero(used)
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    assignment = -np.ones(n_rows, dtype=np.int64)
    for j in range(1, n_cols + 1):
        if p[j] > 0:
            assignment[p[j] - 1] = j - 1
    total = float(cost[np.arange(n_rows), assignment].sum())
    return assignment, total


def seed_greedy_assignment(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """The seed scalar greedy: full-matrix copy + ``inf``-masked argmin.

    :func:`repro.matching.greedy.greedy_assignment` scans only the shrinking
    submatrix of live rows and columns instead, and must return the same
    assignment and total bit for bit.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = cost.shape
    work = cost.copy()
    assignment = -np.ones(n_rows, dtype=np.int64)
    total = 0.0
    for _ in range(n_rows):
        row, col = divmod(int(np.argmin(work)), n_cols)
        total += cost[row, col]
        assignment[row] = col
        work[row, :] = np.inf
        work[:, col] = np.inf
    return assignment, float(total)


def seed_greedy_assignment_batch(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The seed batched greedy: one whole-stack argmin per committed row.

    Every step commits the row-major first minimum of every problem and masks
    its row and column.  An integer stack whose values fit ``int32`` runs on
    an ``int32`` copy with an ``INT32_MAX`` sentinel; anything else on a
    float64 copy masked with ``inf``, where a first-*alive* fix-up handles
    argmins that land on masked cells once only ``inf`` entries remain.  The
    two-phase :func:`repro.matching.greedy.greedy_assignment_batch` must
    return the same assignments, totals and dtypes bit for bit.
    """
    cost = np.asarray(cost)
    num_problems, n_rows, n_cols = cost.shape
    if num_problems == 0 or n_rows == 0:
        return (
            np.empty((num_problems, n_rows), dtype=np.int64),
            np.zeros(num_problems, dtype=np.float64),
        )
    int32_info = np.iinfo(np.int32)
    if (
        np.issubdtype(cost.dtype, np.integer)
        and cost.min() >= int32_info.min
        and cost.max() < int32_info.max
    ):
        work = cost.astype(np.int32)
        masked_value = int32_info.max
    else:
        cost = cost.astype(np.float64, copy=False)
        work = cost.copy()
        masked_value = np.inf
    assignments = -np.ones((num_problems, n_rows), dtype=np.int64)
    totals = np.zeros(num_problems, dtype=np.float64)
    problem_ids = np.arange(num_problems)
    sentinel_can_tie = masked_value == np.inf
    row_dead = np.zeros((num_problems, n_rows), dtype=bool)
    col_dead = np.zeros((num_problems, n_cols), dtype=bool)
    for _ in range(n_rows):
        flat = work.reshape(num_problems, -1).argmin(axis=1)
        rows = flat // n_cols
        cols = flat % n_cols
        if sentinel_can_tie:
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
