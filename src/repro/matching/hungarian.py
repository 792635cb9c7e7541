"""Exact assignment via the Hungarian (Kuhn–Munkres) algorithm.

A from-scratch implementation using the dual-potentials / shortest augmenting
path formulation (Jonker–Volgenant style) with numpy-vectorised inner loops,
giving O(n² ) numpy work per augmented row (O(n³) scalar work overall).
Rectangular matrices with more columns than rows are handled directly; the
returned assignment maps every row to a distinct column and has provably
minimal total cost.  The test-suite cross-checks the result against
``scipy.optimize.linear_sum_assignment`` on random instances.

This is the scalar reference implementation.  The mapping cost engine solves
whole stacks of cost matrices at once with
:func:`repro.core.batch_solvers.hungarian_assignment_batch`, a lockstep
vectorisation of exactly this algorithm whose per-matrix results are
bit-identical to :func:`hungarian_assignment` (including tie-breaking);
changes to either implementation must keep the two in lockstep — the
equivalence is enforced by ``tests/test_batch_solvers.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def hungarian_assignment(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Solve the rectangular assignment problem exactly.

    Parameters
    ----------
    cost:
        ``(n_rows, n_cols)`` cost matrix with ``n_rows <= n_cols``; entries
        must be finite.

    Returns
    -------
    assignment:
        ``assignment[i]`` is the column assigned to row ``i``.
    total_cost:
        Minimal total cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-D, got {cost.ndim}-D")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(
            f"cost must have at least as many columns as rows, got {cost.shape}"
        )
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must contain only finite values")

    INF = np.inf
    # Dual potentials; column 0 is a virtual column simplifying the algorithm.
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    p = np.zeros(n_cols + 1, dtype=np.int64)  # p[j] = row assigned to column j (1-based)
    v_real = v[1:]  # view: the potentials of the real columns
    way = np.zeros(n_cols, dtype=np.int64)  # way[j - 1]: predecessor of column j
    # The alternating tree of the current search: its columns (virtual
    # column 0 first), their rows, and the rows'/columns' potentials.  Only
    # tree members have their potentials shifted during a search, so they
    # are updated here with one slice operation each and written back to
    # ``u``/``v`` when the search ends — the same additions in the same
    # order as updating ``u``/``v`` in place.
    tree_cols = np.zeros(n_rows + 1, dtype=np.int64)
    tree_rows = np.zeros(n_rows + 1, dtype=np.int64)
    tree_u = np.zeros(n_rows + 1)
    tree_v = np.zeros(n_rows + 1)

    for i in range(1, n_rows + 1):
        j0 = 0
        free = np.ones(n_cols, dtype=bool)
        minv = np.full(n_cols, INF)
        tree_rows[0], tree_u[0], tree_v[0] = i, u[i], v[0]
        size = 1
        while True:
            # Reduced costs from the newest tree row to all columns (only the
            # free ones may update the tentative costs).
            i0 = tree_rows[size - 1]
            cur = cost[i0 - 1] - tree_u[size - 1] - v_real
            better = (cur < minv) & free
            minv = np.where(better, cur, minv)
            way = np.where(better, j0, way)
            # Pick the first free column with the smallest tentative cost.
            masked = np.where(free, minv, INF)
            best = int(masked.argmin())
            delta = masked[best]
            j0 = best + 1
            # Update potentials (tentative costs of used columns are never
            # read again, so shifting all of them is harmless).
            tree_u[:size] += delta
            tree_v[:size] -= delta
            minv -= delta
            row = p[j0]
            if row == 0:
                break
            # Column j0 and its row join the tree.
            free[best] = False
            tree_cols[size], tree_rows[size] = j0, row
            tree_u[size], tree_v[size] = u[row], v[j0]
            size += 1
        u[tree_rows[:size]] = tree_u[:size]
        v[tree_cols[:size]] = tree_v[:size]
        # Augment along the alternating path.
        p[0] = i
        while True:
            j1 = way[j0 - 1]
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
