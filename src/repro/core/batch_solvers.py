"""Batched exact assignment solvers (Hungarian and b-Suitor) for pair stacks.

:class:`~repro.core.cost_engine.MappingCostEngine` stacks every uncached
(block, fault-map) pair of Algorithm 1's inner loop into one ``(B, R, C)``
cost tensor.  For the ``greedy`` row method the whole stack has long been
solved by one vectorised sweep (:func:`repro.matching.greedy.
greedy_assignment_batch`); the exact methods, however, still dropped back to
``B`` independent Python solves — ~8 ms per 32×32 Hungarian call, which is
where all the cold-start time of the exact configurations went.  This module
closes that gap with batched counterparts of the two exact solvers.

Both are **lockstep** vectorisations: every matrix in the stack executes
exactly the algorithm the scalar solver executes — the same iterations, the
same floating-point operations in the same order, the same tie-breaking — but
one numpy dispatch advances *all* still-active matrices at once instead of
one.  Matrices retire from the working set as they converge, so a stack whose
members need different iteration counts never does wasted tensor work on the
finished ones.  Because each matrix's evolution is independent of its
neighbours in the stack, the results are **bit-identical** to the scalar
solvers by construction; ``tests/test_batch_solvers.py`` enforces this across
tied, degenerate and rectangular instances, and
``tests/test_core_cost_engine.py`` enforces it end-to-end through Algorithm 1.

* :func:`hungarian_assignment_batch` — the dual-potential / shortest
  augmenting path (Jonker–Volgenant style) formulation of
  :func:`repro.matching.hungarian.hungarian_assignment`, with the dual
  updates and the frontier scan (minimum reduced cost over free columns)
  vectorised over the batch dimension.
* :func:`bsuitor_assignment_batch` — the ``b = 1`` suitor algorithm of
  :func:`repro.matching.bsuitor.bsuitor_assignment`.  Preference lists for
  every vertex of every matrix are built by one batched ``argsort`` (the
  full sort, not an ``argpartition`` top-k: the engine's bit-identical
  guarantee includes tie ordering, and a partial select would reorder equal
  weights), and each proposal round resolves every matrix's pending proposal
  with one vectorised candidate scan.

The batched front-ends return ``(assignments, totals)`` stacks shaped like
:func:`repro.matching.greedy.greedy_assignment_batch`'s output, and are
dispatched by name through :func:`solve_assignment_batch` (the batch
counterpart of :func:`repro.matching.bipartite.solve_assignment`).

A re-plan after a fault delta needs no solver state from the previous plan:
the cost engine serves every pair with an unchanged block and fault map from
its pair cache and sends only the rest here.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.matching.greedy import greedy_assignment_batch

__all__ = [
    "BATCH_SOLVERS",
    "bsuitor_assignment_batch",
    "hungarian_assignment_batch",
    "solve_assignment_batch",
]


def _validate_stack(cost: np.ndarray, name: str) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 3:
        raise ValueError(f"{name} expects a 3-D stack, got {cost.ndim}-D")
    if cost.shape[1] > cost.shape[2]:
        raise ValueError(
            f"cost must have at least as many columns as rows, got "
            f"{cost.shape[1:]}"
        )
    return cost


# --------------------------------------------------------------------------- #
# Hungarian
# --------------------------------------------------------------------------- #
def hungarian_assignment_batch(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a stack of rectangular assignment problems exactly.

    Parameters
    ----------
    cost:
        ``(num_problems, n_rows, n_cols)`` stack with ``n_rows <= n_cols``;
        entries must be finite.

    Returns
    -------
    assignments:
        ``(num_problems, n_rows)`` integer array; row ``p`` is exactly what
        ``hungarian_assignment(cost[p])[0]`` returns.
    totals:
        ``(num_problems,)`` minimal total costs, ``hungarian_assignment``'s
        second return value per problem.

    The scalar solver runs, for each of the ``n_rows`` augmentations, an
    inner loop that grows an alternating tree one column at a time: update
    the tentative reduced costs (``minv``) from the newly used column's row,
    pick the cheapest free column, and shift the dual potentials by that
    column's slack.  Here one iteration of that inner loop advances every
    still-searching problem of the stack at once; problems whose cheapest
    free column is unassigned leave the working set immediately (their
    augmenting path is complete) while the rest keep scanning.  All dual
    updates are float64, applied in the scalar solver's order, so every
    potential, every slack and every tie-break is bit-identical.
    """
    cost = _validate_stack(cost, "hungarian_assignment_batch")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrices must contain only finite values")
    num, n_rows, n_cols = cost.shape
    assignments = np.full((num, n_rows), -1, dtype=np.int64)
    totals = np.zeros(num, dtype=np.float64)
    if num == 0 or n_rows == 0:
        return assignments, totals

    INF = np.inf
    # Dual potentials; column 0 is the virtual column of the scalar solver.
    u = np.zeros((num, n_rows + 1))
    v = np.zeros((num, n_cols + 1))
    p = np.zeros((num, n_cols + 1), dtype=np.int64)  # p[b, j] = row at column j
    every = np.arange(num)

    for i in range(1, n_rows + 1):
        p[:, 0] = i
        j0 = np.zeros(num, dtype=np.int64)
        minv = np.full((num, n_cols + 1), INF)
        used = np.zeros((num, n_cols + 1), dtype=bool)
        way = np.zeros((num, n_cols + 1), dtype=np.int64)
        active = every  # problems still growing their alternating tree
        while active.size:
            used[active, j0[active]] = True
            i0 = p[active, j0[active]]
            sub_used = used[active]
            free = ~sub_used
            free[:, 0] = False
            # Reduced costs from the newly used column's row to all columns
            # (only the free ones are allowed to update the tentative costs).
            cur = cost[active, i0 - 1, :] - u[active, i0, None] - v[active, 1:]
            sub_minv = minv[active]
            better = (cur < sub_minv[:, 1:]) & free[:, 1:]
            sub_minv[:, 1:] = np.where(better, cur, sub_minv[:, 1:])
            sub_way = way[active]
            sub_way[:, 1:] = np.where(better, j0[active, None], sub_way[:, 1:])
            # First free column with the smallest tentative cost (argmin's
            # first-minimum rule reproduces the scalar tie-break).
            masked = np.where(free, sub_minv, INF)
            j1 = masked.argmin(axis=1)
            delta = masked[np.arange(active.size), j1]
            # Shift the potentials of the alternating tree by the slack.
            local, used_cols = np.nonzero(sub_used)
            rows = active[local]
            u[rows, p[rows, used_cols]] += delta[local]
            v[rows, used_cols] -= delta[local]
            minv[active] = np.where(sub_used, sub_minv, sub_minv - delta[:, None])
            way[active] = sub_way
            j0[active] = j1
            # A free *unassigned* column completes the augmenting path:
            # retire the problem from the frontier scan.
            active = active[p[active, j1] != 0]
        # Augment along each problem's alternating path.
        aug = every
        while aug.size:
            j1 = way[aug, j0[aug]]
            p[aug, j0[aug]] = p[aug, j1]
            j0[aug] = j1
            aug = aug[j0[aug] != 0]

    cols_grid = p[:, 1:]
    b_idx, col_idx = np.nonzero(cols_grid > 0)
    assignments[b_idx, cols_grid[b_idx, col_idx] - 1] = col_idx
    # Per-problem loop rather than a vectorised axis-1 sum: this is the
    # scalar solver's exact reduction expression, so bit-identical totals do
    # not depend on numpy's pairwise-summation blocking for 2-D reductions
    # (sub-millisecond for any realistic stack).
    row_range = np.arange(n_rows)
    for k in range(num):
        totals[k] = float(cost[k, row_range, assignments[k]].sum())
    return assignments, totals


# --------------------------------------------------------------------------- #
# b-Suitor (b = 1 assignment front-end)
# --------------------------------------------------------------------------- #
def _suitor_matching_batch(weights: np.ndarray) -> np.ndarray:
    """Run the ``b = 1`` suitor algorithm on a stack of weight matrices.

    Returns ``prop`` of shape ``(num, L + R)`` where ``prop[b, u]`` is the
    vertex that ``u``'s still-accepted proposal points at (``-1`` if none) —
    the surviving proposals *are* the matching, exactly as in the sequential
    :func:`repro.matching.bsuitor.bsuitor_bmatching`.

    The sequential algorithm works through a LIFO stack of vertices that
    still need a partner; each pop scans the vertex's preference list from
    its saved pointer until the first neighbour whose current suitor is
    lighter accepts it (possibly displacing and re-enqueueing that suitor).
    The batched version replays exactly that schedule per matrix — each
    round pops one vertex *per matrix* and resolves its whole scan with one
    vectorised comparison against the current suitor weights — so ties in
    the weights are resolved identically, and matrices whose stacks empty
    retire from the round loop.
    """
    num, n_left, n_right = weights.shape
    nv = n_left + n_right
    deg = max(n_left, n_right)

    # Preference lists (heaviest first) for both sides, one argsort per axis
    # over the whole stack.  Right vertices get ids n_left .. nv-1, exactly
    # like the sequential implementation; tails beyond a side's true degree
    # are padded with -inf weights, which can never be proposed to.
    order_left = np.argsort(-weights, axis=2)
    order_right = np.argsort(-weights, axis=1)
    pref_ids = np.zeros((num, nv, deg), dtype=np.int64)
    pref_w = np.full((num, nv, deg), -np.inf)
    pref_ids[:, :n_left, :n_right] = n_left + order_left
    pref_w[:, :n_left, :n_right] = np.take_along_axis(weights, order_left, axis=2)
    pref_ids[:, n_left:, :n_left] = order_right.transpose(0, 2, 1)
    pref_w[:, n_left:, :n_left] = np.take_along_axis(
        weights, order_right, axis=1
    ).transpose(0, 2, 1)

    pointer = np.zeros((num, nv), dtype=np.int64)
    suitor_w = np.full((num, nv), -np.inf)
    suitor_id = np.full((num, nv), -1, dtype=np.int64)
    prop = np.full((num, nv), -1, dtype=np.int64)
    # Per-matrix LIFO work stack; a vertex is enqueued at most once at a
    # time (only non-suitors wait), so nv slots suffice.
    stack = np.tile(np.arange(nv, dtype=np.int64), (num, 1))
    size = np.full(num, nv, dtype=np.int64)
    positions = np.arange(deg)

    active = np.flatnonzero(size > 0)
    while active.size:
        size[active] -= 1
        uu = stack[active, size[active]]
        cand_ids = pref_ids[active, uu]  # (A, deg)
        cand_w = pref_w[active, uu]
        in_range = positions[None, :] >= pointer[active, uu][:, None]
        # The scan stops at the first candidate at or below the weight
        # threshold (0, matching min_weight=0.0 of the sequential front-end;
        # the -inf padding makes list exhaustion a special case of this).
        below = in_range & (cand_w <= 0.0)
        hopeful = in_range & (cand_w > 0.0)
        accept = hopeful & (cand_w > suitor_w[active[:, None], cand_ids])
        first_below = np.where(below.any(axis=1), below.argmax(axis=1), deg)
        first_accept = np.where(accept.any(axis=1), accept.argmax(axis=1), deg)
        ok = first_accept < first_below
        pointer[active, uu] = np.minimum(first_accept, first_below) + 1

        rows = np.flatnonzero(ok)
        if rows.size:
            acc = active[rows]
            u_acc = uu[rows]
            hit = first_accept[rows]
            v_acc = cand_ids[rows, hit]
            old_id = suitor_id[acc, v_acc]
            suitor_w[acc, v_acc] = cand_w[rows, hit]
            suitor_id[acc, v_acc] = u_acc
            prop[acc, u_acc] = v_acc
            # Displaced suitors lose their proposal and go back on the stack
            # (LIFO: they are popped next, as in the sequential recursion).
            bumped = np.flatnonzero(old_id >= 0)
            if bumped.size:
                d_m = acc[bumped]
                d_id = old_id[bumped]
                prop[d_m, d_id] = -1
                stack[d_m, size[d_m]] = d_id
                size[d_m] += 1
        active = active[size[active] > 0]
    return prop


def bsuitor_assignment_batch(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a stack of assignment problems with the b-Suitor algorithm.

    Batched counterpart of
    :func:`repro.matching.bsuitor.bsuitor_assignment`: costs are converted to
    weights (``max_cost - cost + 1`` per matrix), the ``b = 1`` suitor
    matching runs in lockstep over the stack, and rows the half-approximation
    left unmatched are filled greedily with the cheapest remaining columns —
    every step ordered exactly like the scalar front-end, so row ``p`` of the
    result equals ``bsuitor_assignment(cost[p])`` bit for bit.
    """
    cost = _validate_stack(cost, "bsuitor_assignment_batch")
    num, n_rows, n_cols = cost.shape
    assignments = np.full((num, n_rows), -1, dtype=np.int64)
    totals = np.zeros(num, dtype=np.float64)
    if num == 0 or n_rows == 0:
        return assignments, totals

    weights = cost.max(axis=(1, 2), keepdims=True) - cost + 1.0
    prop = _suitor_matching_batch(weights)

    # Surviving proposals from either side name the same (row, column) pair.
    # Encoding every pair as ``batch * span + row * n_cols + col`` makes one
    # global ``np.unique`` both dedupe and order them per matrix exactly like
    # the sequential ``sorted(set(matches))`` (the key is lexicographic in
    # (batch, row, col)).
    col_used = np.zeros((num, n_cols), dtype=bool)
    span = n_rows * n_cols
    left_b, left_rows = np.nonzero(prop[:, :n_rows] >= 0)
    right_b, right_cols = np.nonzero(prop[:, n_rows:] >= 0)
    keys = np.unique(
        np.concatenate(
            [
                left_b * span
                + left_rows * n_cols
                + (prop[left_b, left_rows] - n_rows),
                right_b * span
                + prop[right_b, n_rows + right_cols] * n_cols
                + right_cols,
            ]
        )
    )
    key_b = keys // span
    key_rows = keys % span // n_cols
    key_cols = keys % n_cols
    counts = np.bincount(key_b, minlength=num)
    rank = np.arange(len(keys)) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )

    # First-come-first-served over the sorted pairs, one pair rank per round
    # across the whole stack (both endpoints must still be unclaimed).
    for k in range(int(counts.max()) if counts.size else 0):
        sel = np.flatnonzero(rank == k)
        have = key_b[sel]
        rows = key_rows[sel]
        cols = key_cols[sel]
        take = np.flatnonzero((assignments[have, rows] < 0) & ~col_used[have, cols])
        assignments[have[take], rows[take]] = cols[take]
        col_used[have[take], cols[take]] = True

    # Greedy fill of unmatched rows (ascending row order; first cheapest
    # remaining column — argmin's first-minimum rule matches the scalar
    # ``min(remaining)``).
    while True:
        pending = assignments < 0
        need = np.flatnonzero(pending.any(axis=1))
        if not need.size:
            break
        row = pending[need].argmax(axis=1)
        choice = np.where(
            col_used[need], np.inf, cost[need, row, :]
        ).argmin(axis=1)
        assignments[need, row] = choice
        col_used[need, choice] = True

    # Scalar reduction expression per problem — see the matching note in
    # :func:`hungarian_assignment_batch`.
    row_range = np.arange(n_rows)
    for k in range(num):
        totals[k] = float(cost[k, row_range, assignments[k]].sum())
    return assignments, totals


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #
#: Registry of batched assignment solvers, keyed like
#: :data:`repro.matching.bipartite.SOLVERS`.
BATCH_SOLVERS: Dict[str, Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = {
    "greedy": greedy_assignment_batch,
    "hungarian": hungarian_assignment_batch,
    "bsuitor": bsuitor_assignment_batch,
}


def solve_assignment_batch(
    cost: np.ndarray, method: str = "hungarian"
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a ``(B, n_rows, n_cols)`` stack with the named method.

    Batch counterpart of :func:`repro.matching.bipartite.solve_assignment`:
    returns ``(assignments, totals)`` where row ``p`` is bit-identical to
    ``solve_assignment(cost[p], method)``.
    """
    try:
        solver = BATCH_SOLVERS[method]
    except KeyError as exc:
        raise ValueError(
            f"unknown assignment method {method!r}; available: "
            f"{sorted(BATCH_SOLVERS)}"
        ) from exc
    return solver(np.asarray(cost, dtype=np.float64))
