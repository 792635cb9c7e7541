"""Multilevel graph partitioning (METIS surrogate).

The paper partitions each input graph with METIS into a large number of small
clusters which are then grouped into mini-batches (Cluster-GCN style).  METIS
is not available offline, so this module implements the same three-phase
multilevel scheme from scratch:

1. **Coarsening** — heavy-edge matching repeatedly contracts the graph until
   it is small (or no further contraction is possible).
2. **Initial partitioning** — greedy BFS region growing assigns the coarse
   vertices to ``k`` balanced parts.
3. **Uncoarsening + refinement** — the assignment is projected back level by
   level and improved with a boundary Kernighan–Lin style refinement pass that
   moves vertices to reduce edge cut subject to a balance constraint.

The output quality matters only in so far as clusters must be balanced and
edge-local; the FARe algorithm itself is agnostic to the partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.sparse import CSRMatrix
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class PartitionResult:
    """Result of partitioning a graph into ``num_parts`` clusters."""

    assignment: np.ndarray
    num_parts: int
    edge_cut: int
    balance: float

    def part_nodes(self, part: int) -> np.ndarray:
        """Return the node ids assigned to ``part``."""
        if not 0 <= part < self.num_parts:
            raise IndexError(f"part {part} out of range (num_parts={self.num_parts})")
        return np.flatnonzero(self.assignment == part)

    def part_sizes(self) -> np.ndarray:
        """Return the number of nodes per part."""
        return np.bincount(self.assignment, minlength=self.num_parts)


# --------------------------------------------------------------------------- #
# Coarsening
# --------------------------------------------------------------------------- #
def _heavy_edge_matching(
    adjacency: CSRMatrix, rng: np.random.Generator
) -> Tuple[np.ndarray, int]:
    """Match each vertex with its heaviest unmatched neighbour.

    Returns ``(match, num_coarse)`` where ``match[v]`` is the coarse vertex id
    of ``v``.
    """
    n = adjacency.shape[0]
    match = -np.ones(n, dtype=np.int64)
    coarse_id = 0
    order = rng.permutation(n)
    for v in order:
        if match[v] >= 0:
            continue
        cols, vals = adjacency.row(v)
        best, best_weight = -1, -1.0
        for u, w in zip(cols, vals):
            if u != v and match[u] < 0 and w > best_weight:
                best, best_weight = int(u), float(w)
        if best >= 0:
            match[v] = coarse_id
            match[best] = coarse_id
        else:
            match[v] = coarse_id
        coarse_id += 1
    return match, coarse_id


def _heaviest_per_segment(
    keys: np.ndarray,
    partners: np.ndarray,
    weights: np.ndarray,
    priority: np.ndarray,
    by_priority: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The heaviest partner of every run of equal ``keys``.

    ``keys`` must be grouped (equal keys adjacent).  Within a run the entry
    of largest weight wins, and among those the partner of highest
    ``priority``; ``by_priority`` is the inverse permutation of
    ``priority``.  Returns ``(key, partner, weight)`` per run, in run order.
    """
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    heaviest = np.maximum.reduceat(weights, starts)
    lengths = np.diff(np.r_[starts, keys.size])
    ranks = np.where(weights == np.repeat(heaviest, lengths), priority[partners], -1)
    return keys[starts], by_priority[np.maximum.reduceat(ranks, starts)], heaviest


def _heavy_edge_matching_streaming(
    adjacency: CSRMatrix, rng: np.random.Generator, rounds: int = 4
) -> Tuple[np.ndarray, int]:
    """Vectorised heavy-edge matching for large graphs (proposer/acceptor).

    Each round splits the unmatched vertices randomly into proposers and
    acceptors (the Luby-style symmetry break — if *every* vertex nominates
    its heaviest neighbour, nominations chase the same hubs and almost none
    are mutual).  Every proposer proposes to its heaviest unmatched
    acceptor-neighbour; every acceptor takes its heaviest proposal; the
    agreed pairs are matched.  Four rounds contract a level by ~45 %.
    Leftovers stay singletons.  Ties in weight go to the partner of highest
    ``priority``, a fresh random permutation per round.

    Both picks are segment maxima (:func:`_heaviest_per_segment`) over
    entries grouped by the choosing vertex: the live entries come out of the
    CSR already grouped by proposer, and one argsort groups the proposals by
    acceptor.  Pure numpy, ``O(E)`` per round plus that sort of the
    proposals, with no per-vertex Python loop.  The seed matcher it
    replaces, with two 3-key sorts per round, lives in
    ``tests/reference/graph.py``; matches and random draws are bit-identical
    to it.
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
        live = (proposer & ~matched)[rows] & ~(proposer | matched)[cols]
        r, c, w = rows[live], cols[live], vals[live]
        if r.size == 0:
            continue
        priority = rng.permutation(n)
        by_priority = np.empty(n, dtype=np.int64)
        by_priority[priority] = np.arange(n)
        # Per proposer (entries grouped by row): its heaviest live acceptor.
        prop_u, prop_v, prop_w = _heaviest_per_segment(r, c, w, priority, by_priority)
        # Per acceptor: keep the heaviest proposal made to it.  Maxima do not
        # depend on the order inside a run, so the sort need not be stable.
        order = np.argsort(prop_v)
        v, u, _ = _heaviest_per_segment(
            prop_v[order], prop_u[order], prop_w[order], priority, by_priority
        )
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


def _contract(adjacency: CSRMatrix, match: np.ndarray, num_coarse: int) -> CSRMatrix:
    """Contract matched vertex pairs into a weighted coarse graph."""
    rows, cols, vals = adjacency.coo()
    coarse_rows = match[rows]
    coarse_cols = match[cols]
    keep = coarse_rows != coarse_cols
    return CSRMatrix.from_coo(
        coarse_rows[keep], coarse_cols[keep], vals[keep], (num_coarse, num_coarse)
    )


# --------------------------------------------------------------------------- #
# Initial partitioning
# --------------------------------------------------------------------------- #
def _region_growing(
    adjacency: CSRMatrix,
    node_weights: np.ndarray,
    num_parts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy BFS region growing into ``num_parts`` weight-balanced parts."""
    n = adjacency.shape[0]
    target = node_weights.sum() / num_parts
    assignment = -np.ones(n, dtype=np.int64)
    part_weight = np.zeros(num_parts)
    order = rng.permutation(n)
    cursor = 0
    for part in range(num_parts):
        # Find an unassigned seed.
        while cursor < n and assignment[order[cursor]] >= 0:
            cursor += 1
        if cursor >= n:
            break
        frontier = [int(order[cursor])]
        while frontier and part_weight[part] < target:
            v = frontier.pop()
            if assignment[v] >= 0:
                continue
            assignment[v] = part
            part_weight[part] += node_weights[v]
            cols, _ = adjacency.row(v)
            for u in cols:
                if assignment[u] < 0:
                    frontier.append(int(u))
    # Any remaining vertices go to the lightest part.
    for v in np.flatnonzero(assignment < 0):
        part = int(np.argmin(part_weight))
        assignment[v] = part
        part_weight[part] += node_weights[v]
    return assignment


# --------------------------------------------------------------------------- #
# Refinement
# --------------------------------------------------------------------------- #
def _refine(
    adjacency: CSRMatrix,
    node_weights: np.ndarray,
    assignment: np.ndarray,
    num_parts: int,
    max_passes: int = 2,
    imbalance: float = 1.3,
) -> np.ndarray:
    """Boundary refinement: move vertices to the neighbouring part with the
    largest cut-gain while keeping parts below ``imbalance × average``."""
    assignment = assignment.copy()
    n = adjacency.shape[0]
    part_weight = np.zeros(num_parts)
    np.add.at(part_weight, assignment, node_weights)
    limit = imbalance * node_weights.sum() / num_parts
    for _ in range(max_passes):
        moved = 0
        for v in range(n):
            cols, vals = adjacency.row(v)
            if cols.size == 0:
                continue
            current = assignment[v]
            gains = np.zeros(num_parts)
            np.add.at(gains, assignment[cols], vals)
            gains -= gains[current]
            gains[current] = 0.0
            best = int(np.argmax(gains))
            if gains[best] > 0 and part_weight[best] + node_weights[v] <= limit:
                part_weight[current] -= node_weights[v]
                part_weight[best] += node_weights[v]
                assignment[v] = best
                moved += 1
        if moved == 0:
            break
    return assignment


def _fill_empty_parts(
    assignment: np.ndarray, node_weights: np.ndarray, num_parts: int
) -> np.ndarray:
    """Give every empty part one vertex (lightest of the heaviest part).

    Refinement is gain-driven and may drain a small part completely; an
    empty part would later surface as a zero-node mini-batch.  Runs on the
    coarsest graph, so the loop is over at most ``num_parts`` empties.
    """
    counts = np.bincount(assignment, minlength=num_parts)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return assignment
    assignment = assignment.copy()
    part_weight = np.zeros(num_parts)
    np.add.at(part_weight, assignment, node_weights)
    for part in empties:
        donor = int(np.argmax(np.where(counts > 1, part_weight, -np.inf)))
        members = np.flatnonzero(assignment == donor)
        vertex = members[np.argmin(node_weights[members])]
        assignment[vertex] = part
        counts[donor] -= 1
        counts[part] += 1
        part_weight[donor] -= node_weights[vertex]
        part_weight[part] += node_weights[vertex]
    return assignment


def _edge_cut(adjacency: CSRMatrix, assignment: np.ndarray) -> int:
    rows, cols, _ = adjacency.coo()
    return int(np.count_nonzero(assignment[rows] != assignment[cols]) // 2)


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
#: ``method="auto"`` switches to the streaming partitioner at this many nodes
#: (the per-vertex Python loops of the multilevel path stop being practical).
STREAMING_NODE_THRESHOLD = 50_000

#: Coarsening stops once the graph has at most ``max(COARSEN_UNTIL,
#: per_part * num_parts)`` vertices (``per_part`` is 4, or 16 when streaming).
COARSEN_UNTIL = 200

#: Safety bound on the number of coarsening levels, per method.  Streaming's
#: mutual matching contracts more slowly per level than sequential matching,
#: and large graphs need the extra levels to reach the stop size.
MAX_LEVELS = {"multilevel": 10, "streaming": 16}


def partition_graph(
    adjacency: CSRMatrix,
    num_parts: int,
    seed: Optional[int] = 0,
    method: str = "auto",
) -> PartitionResult:
    """Partition ``adjacency`` into ``num_parts`` balanced clusters.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency matrix.
    num_parts:
        Number of clusters (the paper's "Partitions" column of Table II).
    seed:
        RNG seed controlling matching/growing tie-breaks.
    method:
        ``"multilevel"`` — the original three-phase scheme with per-level
        KL refinement (per-vertex Python loops; right for the CI-scale
        graphs).  ``"streaming"`` — fully vectorised coarsening (mutual
        heavy-edge matching), initial partitioning and refinement **on the
        coarsest graph only**, and plain projection back (no per-level
        refinement — the quality trade documented in
        ``docs/ARCHITECTURE.md``), so million-node graphs partition in
        ``O(E log E)`` per level with ``O(E)`` peak scratch.  ``"auto"``
        picks streaming at ``STREAMING_NODE_THRESHOLD`` nodes and above.
    """
    num_parts = check_positive_int(num_parts, "num_parts")
    n = adjacency.shape[0]
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    if num_parts > n:
        raise ValueError(f"cannot split {n} nodes into {num_parts} parts")
    if method not in ("auto", "multilevel", "streaming"):
        raise ValueError(
            f"method must be 'auto', 'multilevel' or 'streaming', got {method!r}"
        )
    if method == "auto":
        method = "streaming" if n >= STREAMING_NODE_THRESHOLD else "multilevel"
    rng = ensure_rng(seed)

    if num_parts == 1:
        assignment = np.zeros(n, dtype=np.int64)
        return PartitionResult(assignment, 1, 0, 1.0)

    streaming = method == "streaming"

    # Coarsening phase.  The streaming path stops at a finer coarsest graph
    # (16 coarse vertices per part instead of 4): it refines only there, so
    # it needs enough granularity for region growing to balance — at 4 per
    # part single heavy coarse vertices overshoot the part weight target.
    graphs: List[CSRMatrix] = [adjacency]
    weights: List[np.ndarray] = [np.ones(n)]
    matches: List[np.ndarray] = []
    per_part = 16 if streaming else 4
    stop_size = max(COARSEN_UNTIL, per_part * num_parts)
    for _ in range(MAX_LEVELS[method]):
        current = graphs[-1]
        if current.shape[0] <= stop_size:
            break
        if streaming:
            match, num_coarse = _heavy_edge_matching_streaming(current, rng)
        else:
            match, num_coarse = _heavy_edge_matching(current, rng)
        if num_coarse >= current.shape[0]:
            break
        coarse_weights = np.zeros(num_coarse)
        np.add.at(coarse_weights, match, weights[-1])
        graphs.append(_contract(current, match, num_coarse))
        weights.append(coarse_weights)
        matches.append(match)

    # Initial partitioning on the coarsest graph.
    assignment = _region_growing(graphs[-1], weights[-1], num_parts, rng)
    assignment = _refine(graphs[-1], weights[-1], assignment, num_parts)
    if streaming:
        # No further refinement happens below: guarantee no empty parts now
        # (every coarse vertex carries >= 1 node through projection).
        assignment = _fill_empty_parts(assignment, weights[-1], num_parts)

    # Uncoarsening (+ per-level refinement on the multilevel path).
    for level in range(len(matches) - 1, -1, -1):
        assignment = assignment[matches[level]]
        if not streaming:
            assignment = _refine(
                graphs[level], weights[level], assignment, num_parts
            )

    sizes = np.bincount(assignment, minlength=num_parts).astype(np.float64)
    balance = float(sizes.max() / max(sizes.mean(), 1e-12))
    return PartitionResult(
        assignment=assignment,
        num_parts=num_parts,
        edge_cut=_edge_cut(adjacency, assignment),
        balance=balance,
    )
