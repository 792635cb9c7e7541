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

Algorithm 1's outer assignment is re-solved after every fault delta with a
few crossbar columns changed.  A :class:`HungarianTrace` passed to
:func:`hungarian_assignment` keeps the searches of its last solve; the next
solve replays the leading searches the changed columns cannot have touched
and runs only the rest, with the same result bit for bit
(``tests/test_matching.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

INF = float("inf")


class HungarianTrace:
    """The searches of one solve, kept so that the next solve can replay them.

    Search ``i`` adds row ``i`` to the matching.  ``starts[i]`` holds the
    dual potentials ``(u, v)`` and column owners ``p`` before it (``starts``
    has one more entry, the final state), and ``searches[i]`` its steps: the
    rows of its alternating tree in the order they joined, their potentials
    then, the column each step picked and each step's slack ``delta``.
    ``cost`` is the matrix solved.

    A search reads only its tree rows.  A column whose entries in those
    rows did not change behaves exactly as before; a column whose entries
    did change leaves the search as it was only if, re-scanned in plain
    floats with the same operations in the same order, it never undercuts a
    pick (or ties it ahead of the picked column) and, where it was picked
    itself, reaches the same tentative cost at the same step.  So when the
    next matrix differs in a few columns, its leading searches that pass
    this check are replayed from here instead of run (see
    :func:`hungarian_assignment`).
    """

    def __init__(self) -> None:
        self.cost: Optional[np.ndarray] = None
        self.starts: List[Tuple[np.ndarray, np.ndarray, List[int]]] = []
        self.searches: List[Tuple[List[int], List[float], List[int], List[float]]] = []

    def replayable(self, cost: np.ndarray) -> int:
        """How many leading searches of the last solve also solve ``cost``."""
        previous = self.cost
        if previous is None or previous.shape != cost.shape:
            return 0
        differs = previous != cost
        changed = np.flatnonzero(differs.any(axis=0))
        if not changed.size:
            return len(self.searches)
        # Each re-scan costs a few float operations per changed column and
        # step, a full search step a few array operations: past a quarter
        # of the columns, running the searches is cheaper.
        if 4 * changed.size > cost.shape[1]:
            return 0
        columns = changed.tolist()
        # 1-based rows where each changed column differs, and both versions
        # of the changed columns by row.
        changed_rows = [
            set((np.flatnonzero(rows) + 1).tolist()) for rows in differs[:, changed].T
        ]
        old_costs = previous[:, changed].tolist()
        new_costs = cost[:, changed].tolist()
        for k, (rows, row_u, picked, deltas) in enumerate(self.searches):
            v_start = self.starts[k][1]
            for index, j in enumerate(columns):
                if changed_rows[index].isdisjoint(rows):
                    continue
                v_j = v_start.item(j + 1)
                old = new = INF
                old_at = new_at = -1
                for step, (row, u_row, best, delta) in enumerate(
                    zip(rows, row_u, picked, deltas)
                ):
                    cur = old_costs[row - 1][index] - u_row - v_j
                    if cur < old:
                        old, old_at = cur, step
                    cur = new_costs[row - 1][index] - u_row - v_j
                    if cur < new:
                        new, new_at = cur, step
                    if best == j:
                        if new != old or new_at != old_at:
                            return k
                        break
                    if new < delta or (new == delta and j < best):
                        return k
                    old -= delta
                    new -= delta
        return len(self.searches)


def hungarian_assignment(
    cost: np.ndarray, trace: Optional[HungarianTrace] = None
) -> Tuple[np.ndarray, float]:
    """Solve the rectangular assignment problem exactly.

    Parameters
    ----------
    cost:
        ``(n_rows, n_cols)`` cost matrix with ``n_rows <= n_cols``; entries
        must be finite.
    trace:
        Optional record of the previous solve, updated to this one.  The
        leading searches that :meth:`HungarianTrace.replayable` proves
        unchanged are taken from it instead of run; the result is the same
        bit for bit.

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

    # Dual potentials; column 0 is a virtual column simplifying the algorithm.
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    p = [0] * (n_cols + 1)  # p[j] = row assigned to column j (1-based)
    first = 0
    if trace is not None:
        first = trace.replayable(cost)
        if first:
            start_u, start_v, start_p = trace.starts[first]
            u[:] = start_u
            v[:] = start_v
            p = list(start_p)
        else:
            trace.starts[:] = [(u.copy(), v.copy(), list(p))]
        del trace.starts[first + 1 :], trace.searches[first:]
        trace.cost = cost.copy()
    v_real = v[1:]  # view: the potentials of the real columns
    way = np.zeros(n_cols, dtype=np.int64)  # way[j - 1]: predecessor of column j
    cost_rows = list(cost)
    # Per-search state, reset for every row: tentative costs and scratch.
    minv = np.empty(n_cols)
    cur = np.empty(n_cols)
    better = np.empty(n_cols, dtype=bool)
    # 0-d operands: the newest tree row's potential and the step's delta
    # (numpy broadcasts them faster than Python floats).
    row_u = np.empty(())
    step = np.empty(())

    for i in range(first + 1, n_rows + 1):
        j0 = 0
        i0 = i  # the newest tree row
        minv.fill(INF)
        # The alternating tree of this search: its rows and columns (the
        # virtual column 0 first) and the potentials they had on joining.
        # Every step's ``delta`` raises the tree rows' potentials and lowers
        # the tree columns'; those updates are applied when the search ends,
        # in the same order.  A tree column's potential reads ``-inf`` until
        # then, so its reduced cost is ``inf`` and it never improves.
        tree_rows, tree_cols = [i], [0]
        joined_u, joined_v = [u.item(i)], [v.item(0)]
        row_u[()] = joined_u[0]
        picked, deltas = [], []
        while True:
            # Reduced costs from the newest tree row, whose potential has not
            # moved since it joined, to all columns.
            np.subtract(cost_rows[i0 - 1], row_u, out=cur)
            np.subtract(cur, v_real, out=cur)
            np.less(cur, minv, out=better)
            np.copyto(minv, cur, where=better)
            way[better] = j0
            # Pick the first free column with the smallest tentative cost
            # (a tree column's tentative cost is ``inf``, see below).
            best = int(minv.argmin())
            delta = minv.item(best)
            picked.append(best)
            deltas.append(delta)
            step[()] = delta
            np.subtract(minv, step, out=minv)
            j0 = best + 1
            row = p[j0]
            if row == 0:
                break
            # Column j0 and its row join the tree; the column's tentative
            # cost is never read again, and ``inf`` keeps it out of argmin.
            minv[best] = INF
            i0 = row
            tree_rows.append(row)
            tree_cols.append(j0)
            joined_u.append(u.item(row))
            joined_v.append(v.item(j0))
            row_u[()] = joined_u[-1]
            v[j0] = -INF
        # Member k joined before step k: it takes deltas[k:] in order, one
        # addition after another.  A zero delta leaves every potential as it
        # is (they start at +0.0, and a sum is -0.0 only if its terms are),
        # so only the steps that moved are replayed.
        moves = [(k, delta) for k, delta in enumerate(deltas) if delta]
        first = 0
        for k, row in enumerate(tree_rows):
            while first < len(moves) and moves[first][0] < k:
                first += 1
            raised, lowered = joined_u[k], joined_v[k]
            for _, delta in moves[first:]:
                raised += delta
                lowered -= delta
            u[row] = raised
            v[tree_cols[k]] = lowered
        # Augment along the alternating path.
        p[0] = i
        way_back = way.tolist()
        while True:
            j1 = way_back[j0 - 1]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
        if trace is not None:
            trace.searches.append((tree_rows, joined_u, picked, deltas))
            trace.starts.append((u.copy(), v.copy(), list(p)))

    assignment = -np.ones(n_rows, dtype=np.int64)
    for j in range(1, n_cols + 1):
        if p[j] > 0:
            assignment[p[j] - 1] = j - 1
    total = float(cost[np.arange(n_rows), assignment].sum())
    return assignment, total
