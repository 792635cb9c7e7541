"""Batched mapping cost engine behind Algorithm 1 (fault-aware mapping).

The seed formulation of Algorithm 1's inner loop is a Python ``B × M``
double loop: for every (block, crossbar) pair it builds the row-mismatch
matrix with two dense matmuls and runs a full assignment solve — and then
throws away all but ``B`` of the ``B × M`` permutations it computed.  That
loop now lives only in ``tests/reference/mapping.py``; this engine produces
results **bit-identical** to it (the equivalence is enforced by
``tests/test_core_cost_engine.py``) while doing orders of magnitude less
work:

* **Batched costs** — all distinct blocks are stacked into a ``(B, R, C)``
  tensor and all distinct faulty maps into ``(M, R, C)`` tensors; every
  ``sa0``/``sa1`` row-cost matrix is produced by two batched matmuls instead
  of ``B × M`` small ones.  Because blocks and fault masks are 0/1 valued,
  the matrix entries are exact small integers in float64, so the batched
  contraction is *exactly* equal to the per-pair product — summation order
  cannot change the result, which is what makes bit-identical tie-breaking
  downstream possible.
* **Skip + dedupe** — fault-free crossbars short-circuit (cost 0, identity
  permutation) without touching the tensors, and duplicate blocks/fault maps
  (detected by cheap content fingerprints) are solved once and shared.
* **Vectorial zero-cost early-exit** — a pair whose ``sa0`` *and* ``sa1``
  cost matrices are identically zero has solver cost 0 and SA1 mismatch 0
  under *any* permutation, so no solver call is made at all.
* **Lazy permutations** — the outer block → crossbar assignment only needs
  the cost *values*; the engine therefore returns a permutation *provider*
  and the exact row permutation is materialised only for the ≤ ``B`` pairs
  the outer assignment actually selects.
* **Result cache** — every solved pair is cached under
  ``(block fingerprint, fault-map fingerprint, sa1_weight, method)``, making
  the per-epoch ``update_row_permutations`` refresh and repeated batches on
  unchanged BIST maps near-free.  Hit/miss counters reach a run's
  ``TrainingResult.counters`` through ``FaReStrategy.mapping_engine_stats``.

Performance model (``B`` blocks, ``M`` crossbars, ``R × C`` crossbar):

=====================  ==============================================  =========================================
stage                  seed loop                                       cost engine
=====================  ==============================================  =========================================
row-cost matrices      ``B·M`` Python calls, 2 matmuls each            2 batched matmuls over unique pairs
inner assignments      ``B·M`` solver calls                            one vectorised stack solve over
                                                                       non-zero, non-duplicate, uncached
                                                                       pairs: the batched-greedy sweep
                                                                       (``R`` argmins total) or a lockstep
                                                                       exact solver from
                                                                       :mod:`repro.core.batch_solvers`
permutations           ``B·M`` materialised                            ≤ ``B`` materialised (lazy)
repeated batches       full recompute                                  cache hits, no tensor work
=====================  ==============================================  =========================================

A note on the equivalence guarantee: the outer assignment consumes the exact
per-pair solver costs (a single differing entry could flip a tie in the outer
Hungarian solve), so cost entries can only be *skipped*, never approximated —
lower bounds are used exactly where they are provably tight (the zero-cost
early-exit above).  Everything else is restructuring of identical arithmetic.

Re-planning after a fault delta
-------------------------------
A post-deployment re-plan is an ordinary
:meth:`MappingCostEngine.plan_pairwise` call on the new fault maps.  Every
pair whose block and fault map are unchanged has the same cache key as
before, so it is a cache hit; only the pairs against changed maps reach the
solvers.  The result is bit-identical to planning the new maps from scratch
because a hit returns exactly what the solve returned.  The re-plan is warm
only while the previous plan's unique pairs still fit in
:attr:`MappingCostEngine.CACHE_SIZE` (``fare_paper`` plans 5 511 of them);
beyond that the LRU has evicted some and they are re-solved.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_solvers import BATCH_SOLVERS, solve_assignment_batch
from repro.hardware.faults import FaultMap
from repro.matching.bipartite import solve_assignment
from repro.matching.greedy import greedy_assignment_batch


def block_row_cost_matrix(
    block: np.ndarray, fault_map: FaultMap, sa1_weight: float = 1.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mismatch cost of mapping every block row onto every crossbar row.

    Returns ``(total_cost, sa0_cost, sa1_cost)`` where each matrix has shape
    ``(block_rows, crossbar_rows)``:

    * ``sa0_cost[r, s]`` — ones of block row ``r`` that would land on SA0
      cells of crossbar row ``s`` (deleted edges),
    * ``sa1_cost[r, s]`` — zeros of block row ``r`` that would land on SA1
      cells of crossbar row ``s`` (spurious edges),
    * ``total_cost = sa0_cost + sa1_weight * sa1_cost``.

    This is the single definition of the per-pair cost arithmetic: both the
    seed per-pair loop (via :mod:`repro.core.mapping`, which re-exports it)
    and the batched engine's scalar solves call it, so the two cannot drift
    apart.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.shape != fault_map.shape:
        raise ValueError(
            f"block shape {block.shape} does not match fault map {fault_map.shape}"
        )
    if sa1_weight < 0:
        raise ValueError(f"sa1_weight must be non-negative, got {sa1_weight}")
    ones = (block > 0).astype(np.float64)
    zeros = 1.0 - ones
    sa0_cost = ones @ fault_map.sa0.astype(np.float64).T
    sa1_cost = zeros @ fault_map.sa1.astype(np.float64).T
    return sa0_cost + sa1_weight * sa1_cost, sa0_cost, sa1_cost


def block_fingerprint(block: np.ndarray) -> str:
    """Content hash of a block's binary pattern.

    The mapping cost only depends on where the block's ones are (the cost
    matrices are built from ``block > 0``), so the fingerprint hashes the
    packed boolean mask plus the shape — two float blocks with the same
    sparsity pattern share a fingerprint.
    """
    ones = np.asarray(block) > 0
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(ones.shape, dtype=np.int64).tobytes())
    digest.update(np.packbits(ones).tobytes())
    return digest.hexdigest()


@dataclass
class CostEngineStats:
    """Counters describing how much work the engine avoided.

    ``pairs_total`` counts every (block, crossbar) pair requested;
    ``fault_free_pairs``, ``duplicate_pairs``, ``cache_hits`` and
    ``zero_cost_pairs`` count pairs resolved without a solver call, and
    ``solver_pairs`` the pairs that did reach a solver (batched or scalar).
    ``lazy_permutations`` counts permutations materialised on demand for
    pairs whose solve had been skipped by the zero-cost early-exit.
    """

    pairs_total: int = 0
    fault_free_pairs: int = 0
    duplicate_pairs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    zero_cost_pairs: int = 0
    solver_pairs: int = 0
    lazy_permutations: int = 0
    #: Of ``solver_pairs``, how many were solved by a batched stack solve
    #: (the greedy sweep or a :mod:`repro.core.batch_solvers` exact solver)
    #: rather than one scalar Python call.
    batched_solver_pairs: int = 0
    #: Entries dropped from the LRU result cache (it used to evict silently,
    #: making cache-size tuning unobservable from the outside).
    cache_evictions: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "mapping_pairs_total": float(self.pairs_total),
            "mapping_fault_free_pairs": float(self.fault_free_pairs),
            "mapping_duplicate_pairs": float(self.duplicate_pairs),
            "mapping_cache_hits": float(self.cache_hits),
            "mapping_cache_misses": float(self.cache_misses),
            "mapping_zero_cost_pairs": float(self.zero_cost_pairs),
            "mapping_solver_pairs": float(self.solver_pairs),
            "mapping_lazy_permutations": float(self.lazy_permutations),
            "mapping_batched_solver_pairs": float(self.batched_solver_pairs),
            "mapping_cache_evictions": float(self.cache_evictions),
        }


@dataclass
class _PairEntry:
    """Cached result for one (block pattern, fault pattern) pair.

    ``permutation`` is ``None`` while the pair's solve has been skipped by the
    zero-cost early-exit; it is filled in lazily the first time the pair is
    actually selected by the outer assignment.
    """

    cost: float
    sa1_mismatch: float
    permutation: Optional[np.ndarray] = None


#: A provider returning the (solver-exact) row permutation for pair ``(i, j)``.
PermutationProvider = Callable[[int, int], np.ndarray]


class MappingCostEngine:
    """Batched, cached computation of Algorithm 1's inner-loop costs.

    Parameters
    ----------
    sa1_weight:
        Multiplier applied to SA1 mismatches (part of every cache key).
    row_method:
        Assignment solver for the inner row matching.  All three methods run
        fully batched: ``'greedy'`` through the vectorised sweep in
        :mod:`repro.matching.greedy`, ``'hungarian'``/``'bsuitor'`` through
        the lockstep exact solvers in :mod:`repro.core.batch_solvers`.
    """

    #: Upper bound on the number of float64 elements materialised per batched
    #: chunk; keeps the ``(pairs, R, C)`` intermediates within a fixed memory
    #: budget on large batches.
    MAX_CHUNK_CELLS = 16_000_000

    #: Maximum number of pair results kept (LRU eviction).  A re-plan after a
    #: fault delta is warm only while the previous plan's unique pairs fit
    #: here; ``fare_paper`` plans 5 511.
    CACHE_SIZE = 65_536

    def __init__(self, sa1_weight: float = 4.0, row_method: str = "greedy") -> None:
        if sa1_weight < 0:
            raise ValueError(f"sa1_weight must be non-negative, got {sa1_weight}")
        if row_method not in BATCH_SOLVERS:
            raise ValueError(
                f"unknown row method {row_method!r}; available: "
                f"{sorted(BATCH_SOLVERS)}"
            )
        self.sa1_weight = float(sa1_weight)
        self.row_method = row_method
        self.stats = CostEngineStats()
        self._cache: "OrderedDict[Tuple, _PairEntry]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def _key(self, block_fp: str, map_fp: str) -> Tuple:
        return (block_fp, map_fp, self.sa1_weight, self.row_method)

    def _cache_lookup(self, key: Tuple) -> Optional[_PairEntry]:
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
        return entry

    def _cache_store(self, key: Tuple, entry: _PairEntry) -> _PairEntry:
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.CACHE_SIZE:
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1
        return entry

    def clear_cache(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------ #
    # Exact per-pair arithmetic (shared with the seed formulation)
    # ------------------------------------------------------------------ #
    def _pair_cost_matrices(
        self, block: np.ndarray, fault_map: FaultMap
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(total, sa0_cost, sa1_cost)`` for one pair, seed-identical."""
        return block_row_cost_matrix(block, fault_map, self.sa1_weight)

    def _solve_pair(
        self, total: np.ndarray, sa1_cost: np.ndarray
    ) -> Tuple[float, np.ndarray, float]:
        """Solve one pair with the scalar solver (seed-identical)."""
        self.stats.solver_pairs += 1
        permutation, cost = solve_assignment(total, method=self.row_method)
        permutation = permutation.astype(np.int64)
        sa1 = float(sa1_cost[np.arange(len(permutation)), permutation].sum())
        return float(cost), permutation, sa1

    def _materialise_permutation(
        self, entry: _PairEntry, block: np.ndarray, fault_map: FaultMap
    ) -> np.ndarray:
        """Fill in a lazily skipped permutation by running the real solver."""
        if entry.permutation is None:
            total, _, sa1_cost = self._pair_cost_matrices(block, fault_map)
            _, entry.permutation, _ = self._solve_pair(total, sa1_cost)
            self.stats.lazy_permutations += 1
        return entry.permutation.copy()

    # ------------------------------------------------------------------ #
    # Single-pair front-end (update_row_permutations path)
    # ------------------------------------------------------------------ #
    def block_crossbar_cost(
        self, block: np.ndarray, fault_map: FaultMap
    ) -> Tuple[float, np.ndarray, float]:
        """Cached equivalent of :func:`repro.core.mapping.block_crossbar_cost`.

        Returns ``(total_cost, row_permutation, sa1_mismatch)``; repeated
        calls with an unchanged block/fault pattern are cache hits and do no
        tensor or solver work.
        """
        self.stats.pairs_total += 1
        if fault_map.is_fault_free():
            self.stats.fault_free_pairs += 1
            n = np.asarray(block).shape[0]
            return 0.0, np.arange(n, dtype=np.int64), 0.0
        key = self._key(block_fingerprint(block), fault_map.fingerprint)
        entry = self._cache_lookup(key)
        if entry is None:
            # The caller always needs the permutation here, so the zero-cost
            # lazy skip would only defer (and duplicate) work — solve eagerly.
            total, _, sa1_cost = self._pair_cost_matrices(block, fault_map)
            cost, permutation, sa1 = self._solve_pair(total, sa1_cost)
            entry = _PairEntry(cost=cost, sa1_mismatch=sa1, permutation=permutation)
            self._cache_store(key, entry)
        permutation = self._materialise_permutation(entry, block, fault_map)
        return entry.cost, permutation, entry.sa1_mismatch

    # ------------------------------------------------------------------ #
    # Batched front-end (map_blocks path)
    # ------------------------------------------------------------------ #
    def plan_pairwise(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> Tuple[np.ndarray, np.ndarray, PermutationProvider]:
        """Costs and SA1 mismatches for all pairs, permutations lazy.

        Returns ``(costs, sa1_mismatches, permutation_for)`` where the two
        arrays have shape ``(len(blocks), len(fault_maps))`` and
        ``permutation_for(i, j)`` materialises the solver-exact row
        permutation of pair ``(i, j)`` on demand.  Every value is
        bit-identical to what the seed per-pair loop produces.
        """
        num_blocks = len(blocks)
        num_maps = len(fault_maps)
        costs = np.zeros((num_blocks, num_maps), dtype=np.float64)
        sa1_mismatches = np.zeros((num_blocks, num_maps), dtype=np.float64)
        if num_blocks == 0 or num_maps == 0:
            return costs, sa1_mismatches, lambda i, j: np.arange(0, dtype=np.int64)
        self.stats.pairs_total += num_blocks * num_maps

        # -- fingerprint + dedupe the two axes --------------------------- #
        block_fps = [block_fingerprint(b) for b in blocks]
        unique_block_of: Dict[str, int] = {}
        block_rep: List[int] = []  # unique block id -> representative index
        block_uid = np.empty(num_blocks, dtype=np.int64)
        for i, fp in enumerate(block_fps):
            uid = unique_block_of.setdefault(fp, len(block_rep))
            if uid == len(block_rep):
                block_rep.append(i)
            block_uid[i] = uid

        map_fps = [fmap.fingerprint for fmap in fault_maps]
        fault_free = np.array([fmap.is_fault_free() for fmap in fault_maps])
        unique_map_of: Dict[str, int] = {}
        map_rep: List[int] = []
        map_uid = np.full(num_maps, -1, dtype=np.int64)
        for j in range(num_maps):
            if fault_free[j]:
                continue
            uid = unique_map_of.setdefault(map_fps[j], len(map_rep))
            if uid == len(map_rep):
                map_rep.append(j)
            map_uid[j] = uid

        num_ub, num_um = len(block_rep), len(map_rep)
        self.stats.fault_free_pairs += num_blocks * int(fault_free.sum())
        self.stats.duplicate_pairs += (
            num_blocks * (num_maps - int(fault_free.sum())) - num_ub * num_um
        )

        # -- resolve unique pairs through the cache ----------------------- #
        # One dict lookup per pair plus one LRU touch per hit; the counters
        # move once per call.
        cache = self._cache
        weight, method = self.sa1_weight, self.row_method
        unique_map_fps = [map_fps[j] for j in map_rep]
        entries: List[List[Optional[_PairEntry]]] = []
        to_solve: List[Tuple[int, int]] = []
        for ub in range(num_ub):
            bfp = block_fps[block_rep[ub]]
            row: List[Optional[_PairEntry]] = []
            for um, mfp in enumerate(unique_map_fps):
                key = (bfp, mfp, weight, method)  # == self._key(bfp, mfp)
                entry = cache.get(key)
                if entry is None:
                    to_solve.append((ub, um))
                else:
                    cache.move_to_end(key)
                row.append(entry)
            entries.append(row)
        self.stats.cache_hits += num_ub * num_um - len(to_solve)
        self.stats.cache_misses += len(to_solve)

        if to_solve:
            self._solve_pairs_batched(blocks, fault_maps, block_rep, map_rep,
                                      block_fps, map_fps, to_solve, entries)

        # -- scatter the unique results to the full (B, M) grids ---------- #
        faulty_cols = np.flatnonzero(~fault_free)
        if faulty_cols.size:
            unique_costs = np.array(
                [[entry.cost for entry in row] for row in entries], dtype=np.float64
            )
            unique_sa1 = np.array(
                [[entry.sa1_mismatch for entry in row] for row in entries],
                dtype=np.float64,
            )
            col_uid = map_uid[faulty_cols]
            costs[:, faulty_cols] = unique_costs[np.ix_(block_uid, col_uid)]
            sa1_mismatches[:, faulty_cols] = unique_sa1[np.ix_(block_uid, col_uid)]

        def permutation_for(i: int, j: int) -> np.ndarray:
            if fault_free[j]:
                n = np.asarray(blocks[i]).shape[0]
                return np.arange(n, dtype=np.int64)
            entry = entries[block_uid[i]][map_uid[j]]
            return self._materialise_permutation(entry, blocks[i], fault_maps[j])

        return costs, sa1_mismatches, permutation_for

    # ------------------------------------------------------------------ #
    def _solve_pairs_batched(
        self,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
        block_rep: List[int],
        map_rep: List[int],
        block_fps: List[str],
        map_fps: List[str],
        to_solve: List[Tuple[int, int]],
        entries: List[List[Optional[_PairEntry]]],
    ) -> None:
        """Solve the uncached unique pairs with batched tensor work."""
        shape = fault_maps[map_rep[0]].shape
        for fmap in fault_maps:
            if fmap.shape != shape:
                raise ValueError(
                    f"fault map shape {fmap.shape} does not match {shape}"
                )
        # Stack only the blocks/maps that actually have pending pairs, so a
        # mostly-warm call (e.g. one new block against a cached pool) pays
        # tensor cost proportional to the new work, not to the full batch.
        solve_ubs = sorted({ub for ub, _ in to_solve})
        solve_ums = sorted({um for _, um in to_solve})
        compact_ub = {ub: k for k, ub in enumerate(solve_ubs)}
        compact_um = {um: k for k, um in enumerate(solve_ums)}
        ones_stack = np.stack(
            [
                (np.asarray(blocks[block_rep[ub]], dtype=np.float64) > 0).astype(
                    np.float64
                )
                for ub in solve_ubs
            ]
        )
        if ones_stack.shape[1:] != shape:
            raise ValueError(
                f"block shape {ones_stack.shape[1:]} does not match fault map "
                f"{shape}"
            )
        rows, cols = shape
        # Cost entries are counts ≤ cols (SA1-weighted: ≤ (1 + w)·cols).  When
        # they all fit exactly in float32 (< 2²⁴) the big contraction can run
        # in float32 — half the memory traffic — and still produce the exact
        # same integers as the seed's float64 matmuls; likewise an integral
        # sa1_weight allows the greedy solve to run on an exact int32 stack.
        exact_f32 = (1.0 + self.sa1_weight) * cols < 2**24
        compute_dtype = np.float32 if exact_f32 else np.float64
        integral_weight = exact_f32 and float(self.sa1_weight).is_integer()
        ones_stack = ones_stack.astype(compute_dtype)
        zeros_stack = 1.0 - ones_stack
        sa0_stack = np.stack(
            [fault_maps[map_rep[um]].sa0.astype(compute_dtype) for um in solve_ums]
        )
        sa1_stack = np.stack(
            [fault_maps[map_rep[um]].sa1.astype(compute_dtype) for um in solve_ums]
        )

        def record(ub: int, um: int, entry: _PairEntry) -> None:
            entries[ub][um] = self._cache_store(
                self._key(block_fps[block_rep[ub]], map_fps[map_rep[um]]), entry
            )

        pair_density = len(to_solve) / max(len(solve_ubs) * len(solve_ums), 1)
        if pair_density >= 0.5:
            # Dense pending set (the cold-start shape): one big contraction
            # per fault class over the (pending block × pending map) grid —
            # exact integer-valued results, identical to the seed's per-pair
            # products.  Chunked over maps to bound the grid size.
            grid_cells = max(len(solve_ubs) * rows * rows * 6, 1)
            map_chunk = max(1, self.MAX_CHUNK_CELLS // grid_cells)
            by_um = sorted(to_solve, key=lambda pair: compact_um[pair[1]])
            cursor = 0
            while cursor < len(by_um):
                cm_lo = compact_um[by_um[cursor][1]]
                cm_hi = min(cm_lo + map_chunk, len(solve_ums))
                batch = []
                while cursor < len(by_um) and compact_um[by_um[cursor][1]] < cm_hi:
                    batch.append(by_um[cursor])
                    cursor += 1
                sa0_grid = np.tensordot(
                    ones_stack, sa0_stack[cm_lo:cm_hi], axes=([2], [2])
                ).transpose(0, 2, 1, 3)
                sa1_grid = np.tensordot(
                    zeros_stack, sa1_stack[cm_lo:cm_hi], axes=([2], [2])
                ).transpose(0, 2, 1, 3)
                ub_idx = np.array(
                    [compact_ub[ub] for ub, _ in batch], dtype=np.int64
                )
                um_idx = np.array(
                    [compact_um[um] - cm_lo for _, um in batch], dtype=np.int64
                )
                self._finish_pair_batch(
                    batch,
                    sa0_grid[ub_idx, um_idx],
                    sa1_grid[ub_idx, um_idx],
                    integral_weight,
                    record,
                )
        else:
            # Sparse pending set (e.g. one new block against a warm pool plus
            # one refreshed map): batched per-pair matmuls over just the
            # pending pairs, so the cost stays proportional to the new work.
            pair_chunk = max(1, self.MAX_CHUNK_CELLS // max(rows * cols * 6, 1))
            for start in range(0, len(to_solve), pair_chunk):
                batch = to_solve[start : start + pair_chunk]
                ub_idx = np.array(
                    [compact_ub[ub] for ub, _ in batch], dtype=np.int64
                )
                um_idx = np.array(
                    [compact_um[um] for _, um in batch], dtype=np.int64
                )
                sa0_sel = ones_stack[ub_idx] @ sa0_stack[um_idx].transpose(0, 2, 1)
                sa1_sel = zeros_stack[ub_idx] @ sa1_stack[um_idx].transpose(0, 2, 1)
                self._finish_pair_batch(
                    batch, sa0_sel, sa1_sel, integral_weight, record
                )

    def _finish_pair_batch(
        self,
        batch: List[Tuple[int, int]],
        sa0_sel: np.ndarray,
        sa1_sel: np.ndarray,
        integral_weight: bool,
        record: Callable[[int, int, _PairEntry], None],
    ) -> None:
        """Zero-detect, solve and cache one batch of gathered pair matrices.

        ``sa0_sel``/``sa1_sel`` are ``(len(batch), R, S)`` stacks of exact
        integer-valued cost components; ``record(ub, um, entry)`` persists a
        result under the pair's cache key and result table.
        """
        # Vectorial zero-cost early-exit: both component matrices all-zero
        # means any permutation is optimal at cost 0 with zero SA1 mismatch —
        # no solver call needed, the permutation stays lazy.
        nonzero = np.logical_or(
            sa0_sel.any(axis=(1, 2)), sa1_sel.any(axis=(1, 2))
        )
        for k in np.flatnonzero(~nonzero):
            ub, um = batch[k]
            self.stats.zero_cost_pairs += 1
            record(ub, um, _PairEntry(cost=0.0, sa1_mismatch=0.0))
        live = np.flatnonzero(nonzero)
        if not live.size:
            return
        sa0_live = sa0_sel[live]
        sa1_live = sa1_sel[live]
        live_pairs = [batch[k] for k in live]
        if self.row_method == "greedy":
            if integral_weight:
                # Exact int32 work stack: same integers, half the traffic.
                total = sa0_live.astype(np.int32) + int(
                    self.sa1_weight
                ) * sa1_live.astype(np.int32)
            else:
                total = sa0_live.astype(np.float64) + self.sa1_weight * (
                    sa1_live.astype(np.float64)
                )
            assignments, totals = greedy_assignment_batch(total)
            self.stats.solver_pairs += len(live_pairs)
            self.stats.batched_solver_pairs += len(live_pairs)
            # Vectorised SA1 gather: per pair the same values in the same
            # order as the seed's fancy-indexed row sum (exact integers).
            sa1_totals = (
                np.take_along_axis(sa1_live, assignments[:, :, None], axis=2)[
                    :, :, 0
                ]
                .astype(np.float64)
                .sum(axis=1)
            )
            for k, (ub, um) in enumerate(live_pairs):
                record(
                    ub,
                    um,
                    _PairEntry(
                        cost=float(totals[k]),
                        sa1_mismatch=float(sa1_totals[k]),
                        permutation=assignments[k],
                    ),
                )
        else:
            # Lockstep exact solve of the whole pair stack (bit-identical to
            # one scalar solver call per pair, the seed formulation).
            sa1_f64 = sa1_live.astype(np.float64)
            total = sa0_live.astype(np.float64) + self.sa1_weight * sa1_f64
            assignments, totals = solve_assignment_batch(
                total, method=self.row_method
            )
            self.stats.solver_pairs += len(live_pairs)
            self.stats.batched_solver_pairs += len(live_pairs)
            rows = np.arange(assignments.shape[1])
            for k, (ub, um) in enumerate(live_pairs):
                permutation = assignments[k]
                record(
                    ub,
                    um,
                    _PairEntry(
                        cost=float(totals[k]),
                        sa1_mismatch=float(sa1_f64[k, rows, permutation].sum()),
                        permutation=permutation,
                    ),
                )
