"""Seed graph pre-processing: references for ``graph.partition`` and ``graph.sparse``.

* :func:`seed_heavy_edge_matching_streaming` — the streaming partitioner's
  proposer/acceptor matcher with two 3-key ``np.lexsort`` calls per round
  (for the segment-maximum ``_heavy_edge_matching_streaming``);
* :func:`seed_from_coo` — ``CSRMatrix.from_coo`` that finds duplicate
  boundaries with ``np.unique`` (a second sort) and orders the unsummed
  entries with ``np.lexsort``;
* :func:`seed_add_self_loops` — ``A + I`` through a ``from_coo`` for the
  missing diagonal and a second, sorting one in ``CSRMatrix.add``.

The production paths must return bit-identical results and, for the
matcher, leave the generator in the same state.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.sparse import CSRMatrix


def seed_heavy_edge_matching_streaming(
    adjacency: CSRMatrix, rng: np.random.Generator, rounds: int = 4
) -> Tuple[np.ndarray, int]:
    """Proposer/acceptor heavy-edge matching through two lexsorts per round.

    Per proposer, the live entries are sorted by (row, weight, priority of
    the acceptor) and the last entry of each row is its proposal; per
    acceptor, the proposals are sorted by (acceptor, weight, priority of the
    proposer) and the last one of each acceptor wins.
    """
    n = adjacency.shape[0]
    rows, cols, vals = adjacency.coo()
    keep = rows != cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    matched = np.zeros(n, dtype=bool)
    pair_u: List[np.ndarray] = []
    pair_v: List[np.ndarray] = []
    for _ in range(rounds):
        proposer = rng.random(n) < 0.5
        live = (
            ~matched[rows] & ~matched[cols] & proposer[rows] & ~proposer[cols]
        )
        r, c, w = rows[live], cols[live], vals[live]
        if r.size == 0:
            continue
        priority = rng.permutation(n)
        order = np.lexsort((priority[c], w, r))
        r_s, c_s, w_s = r[order], c[order], w[order]
        last = np.flatnonzero(np.r_[r_s[1:] != r_s[:-1], True])
        prop_u, prop_v, prop_w = r_s[last], c_s[last], w_s[last]
        order = np.lexsort((priority[prop_u], prop_w, prop_v))
        u_s, v_s = prop_u[order], prop_v[order]
        last = np.flatnonzero(np.r_[v_s[1:] != v_s[:-1], True])
        u, v = u_s[last], v_s[last]
        matched[u] = True
        matched[v] = True
        pair_u.append(u)
        pair_v.append(v)
    match = -np.ones(n, dtype=np.int64)
    if pair_u:
        u = np.concatenate(pair_u)
        v = np.concatenate(pair_v)
        match[u] = np.arange(u.size)
        match[v] = match[u]
        num_pairs = u.size
    else:
        num_pairs = 0
    singles = np.flatnonzero(match < 0)
    match[singles] = num_pairs + np.arange(singles.size)
    return match, num_pairs + singles.size


def seed_from_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    shape: Tuple[int, int],
    sum_duplicates: bool = True,
) -> CSRMatrix:
    """COO → CSR with ``np.unique`` after the key sort and a lexsort otherwise."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if sum_duplicates and rows.size:
        keys = rows * n_cols + cols
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        unique_keys, starts = np.unique(keys, return_index=True)
        values = np.add.reduceat(values, starts)
        rows = (unique_keys // n_cols).astype(np.int64)
        cols = (unique_keys % n_cols).astype(np.int64)
    else:
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
    counts = np.bincount(rows, minlength=n_rows)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRMatrix(indptr, cols, values, (n_rows, n_cols))


def seed_add_self_loops(adjacency: CSRMatrix) -> CSRMatrix:
    """``A + I`` with the missing diagonal summed in through ``from_coo``."""
    n = adjacency.shape[0]
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    dense_diag = np.zeros(n, dtype=bool)
    rows, cols, _ = adjacency.coo()
    dense_diag[rows[rows == cols]] = True
    missing = np.flatnonzero(~dense_diag)
    if missing.size == 0:
        return adjacency
    eye_part = CSRMatrix.from_coo(missing, missing, np.ones(missing.size), adjacency.shape)
    return adjacency.add(eye_part)
