"""The seed scalar Hungarian loop (reference for ``matching.hungarian``)."""

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
