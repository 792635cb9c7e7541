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
  cost matrices are identically zero has cost 0 and SA1 mismatch 0 under
  *any* permutation, and its cost matrix is the all-zero matrix, so every
  such pair gets the solver's permutation of that one matrix: one solve per
  batch serves all of them.
* **Result cache** — every solved pair is cached under its fault map's
  ``(fingerprint, sa1_weight, method)`` and its block's fingerprint.  A
  plan looks each fault map up once and all of its blocks in one pass;
  when the cache is full, the results of the least recently used fault
  maps are dropped first.  Hit/miss counters reach a run's
  ``TrainingResult.counters`` through ``FaReStrategy.mapping_engine_stats``.
* **Batched refresh** — the per-epoch ``update_row_permutations`` refresh
  resolves a plan's (block, crossbar) pairs in one :meth:`pair_results`
  call, through the same stacks, dedupe, cache and batched solve as a plan,
  so a refresh against unchanged BIST maps is all cache hits.

Performance model (``B`` blocks, ``M`` crossbars, ``R × C`` crossbar):

=====================  ==============================================  =========================================
stage                  seed loop                                       cost engine
=====================  ==============================================  =========================================
row-cost matrices      ``B·M`` Python calls, 2 matmuls each            2 batched matmuls over unique pairs
inner assignments      ``B·M`` solver calls                            one vectorised stack solve over
                                                                       non-zero, non-duplicate, uncached
                                                                       pairs: the two-phase batch greedy
                                                                       or a lockstep exact solver from
                                                                       :mod:`repro.core.batch_solvers`
permutations           ``B·M`` materialised                            kept from the stack solve, copied out
                                                                       only for the pairs a plan selects
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
pair whose block and fault map are unchanged has the same cache keys as
before, so it is a cache hit; only the pairs against changed maps reach the
solvers.  The result is bit-identical to planning the new maps from scratch
because a hit returns exactly what the solve returned.  The re-plan is warm
only while the previous plan's unique pairs still fit in
:attr:`MappingCostEngine.CACHE_SIZE` (``fare_paper`` plans 5 511 of them);
beyond that some have been evicted and they are re-solved.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_solvers import BATCH_SOLVERS, solve_assignment_batch
from repro.hardware.faults import FaultMap, pattern_fingerprints
from repro.matching.greedy import greedy_assignment_batch


def block_fingerprint(block: np.ndarray) -> str:
    """Content hash of a block's binary pattern.

    The mapping cost only depends on where the block's ones are (the cost
    matrices are built from ``block > 0``), so the fingerprint hashes the
    packed boolean mask plus the shape — two float blocks with the same
    sparsity pattern share a fingerprint.
    """
    return pattern_fingerprints((np.asarray(block) > 0)[None, None])[0]


@dataclass
class CostEngineStats:
    """Counters describing how much work the engine avoided.

    ``pairs_total`` counts every (block, crossbar) pair requested;
    ``fault_free_pairs``, ``duplicate_pairs``, ``cache_hits`` and
    ``zero_cost_pairs`` count pairs resolved without a solve of their own,
    and ``solver_pairs`` the pairs that did reach a stack solve.
    """

    pairs_total: int = 0
    fault_free_pairs: int = 0
    duplicate_pairs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    zero_cost_pairs: int = 0
    solver_pairs: int = 0
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
            "mapping_cache_evictions": float(self.cache_evictions),
        }


@dataclass(eq=False)
class _PairEntry:
    """Cached result for one (block pattern, fault pattern) pair.

    Entries compare by identity, so scanning a list of them for ``None``
    stays a C-level loop.
    """

    cost: float
    sa1_mismatch: float
    permutation: np.ndarray


_COST = attrgetter("cost")
_SA1_MISMATCH = attrgetter("sa1_mismatch")

#: A provider returning the (solver-exact) row permutation for pair ``(i, j)``.
PermutationProvider = Callable[[int, int], np.ndarray]


class _Stacks(NamedTuple):
    """One call's blocks and fault maps, stacked once and deduplicated.

    ``masks`` holds ``block > 0`` of every block and ``planes`` the
    ``(sa0, sa1)`` masks of every fault map; they serve the fingerprints, the
    fault-free test and the contraction.  Block ``i`` has the unique pattern
    ``block_uid[i]``; unique pattern ``ub`` was first seen at block
    ``block_rep[ub]`` and has fingerprint ``block_fps[ub]``.  The ``map_*``
    fields do the same for the fault maps listed in ``faulty``, the ones with
    at least one fault (``map_uid`` is -1 for a fault-free map).
    """

    masks: np.ndarray
    planes: np.ndarray
    faulty: np.ndarray
    block_uid: np.ndarray
    block_rep: np.ndarray
    block_fps: List[str]
    map_uid: np.ndarray
    map_rep: np.ndarray
    map_fps: List[str]


def _dedupe(fingerprints: List[str]) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Number distinct fingerprints in order of first appearance.

    Returns each fingerprint's number, the position where each number first
    appears, and the distinct fingerprints.
    """
    unique_of: Dict[str, int] = {}
    numbers = [unique_of.setdefault(fp, len(unique_of)) for fp in fingerprints]
    first = np.unique(numbers, return_index=True)[1]
    return np.array(numbers, dtype=np.int64), first, list(unique_of)


def _stack_and_dedupe(
    blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
) -> _Stacks:
    """Stack, fingerprint and dedupe a call's blocks and fault maps.

    The cost depends on ``block > 0`` and the fault masks only, so one stack
    of each is all the engine reads.
    """
    shape = fault_maps[0].shape
    for fmap in fault_maps:
        if fmap.shape != shape:
            raise ValueError(f"fault map shape {fmap.shape} does not match {shape}")
    masks = np.array([np.asarray(block) > 0 for block in blocks])
    if masks.shape[1:] != shape:
        raise ValueError(
            f"block shape {masks.shape[1:]} does not match fault map {shape}"
        )
    num_maps = len(fault_maps)
    planes = np.array(
        [plane for fmap in fault_maps for plane in (fmap.sa0, fmap.sa1)]
    ).reshape(num_maps, 2, *shape)
    faulty = np.flatnonzero(planes.reshape(num_maps, -1).any(axis=1))
    block_uid, block_rep, block_fps = _dedupe(pattern_fingerprints(masks[:, None]))
    map_numbers, map_first, map_fps = _dedupe(pattern_fingerprints(planes[faulty]))
    map_uid = np.full(num_maps, -1, dtype=np.int64)
    map_uid[faulty] = map_numbers
    return _Stacks(
        masks, planes, faulty, block_uid, block_rep, block_fps, map_uid,
        faulty[map_first], map_fps,
    )


class MappingCostEngine:
    """Batched, cached computation of Algorithm 1's inner-loop costs.

    Parameters
    ----------
    sa1_weight:
        Multiplier applied to SA1 mismatches (part of every cache key).
    row_method:
        Assignment solver for the inner row matching.  All three methods run
        fully batched: ``'greedy'`` through the two-phase batch solve in
        :mod:`repro.matching.greedy`, ``'hungarian'``/``'bsuitor'`` through
        the lockstep exact solvers in :mod:`repro.core.batch_solvers`.
    """

    #: Upper bound on the number of float64 elements materialised per batched
    #: chunk; keeps the ``(pairs, R, C)`` intermediates within a fixed memory
    #: budget on large batches.
    MAX_CHUNK_CELLS = 16_000_000

    #: Maximum number of pair results kept.  Results are grouped by fault
    #: map; past this many, the groups of the least recently used fault maps
    #: are dropped whole.  A re-plan after a fault delta is warm only while
    #: the previous plan's unique pairs fit here; ``fare_paper`` plans 5 511.
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
        # Pair results grouped by fault map, in LRU order of the maps:
        # ``_cache[self._column_key(map_fp)][block_fp]``.  A call looks each
        # fault map up once (one LRU touch per map, not per pair) and then
        # its blocks.
        self._cache: "OrderedDict[Tuple, Dict[str, _PairEntry]]" = OrderedDict()
        self._cached_pairs = 0

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def _column_key(self, map_fp: str) -> Tuple:
        """Cache key of one fault map's results (with the solver settings)."""
        return (map_fp, self.sa1_weight, self.row_method)

    def _column(self, map_fp: str) -> Optional[Dict[str, _PairEntry]]:
        """The cached results against ``map_fp``, touched as most recent."""
        key = self._column_key(map_fp)
        column = self._cache.get(key)
        if column is not None:
            self._cache.move_to_end(key)
        return column

    def _cache_store(
        self, map_fp: str, block_fp: str, entry: _PairEntry
    ) -> _PairEntry:
        key = self._column_key(map_fp)
        column = self._cache.get(key)
        if column is None:
            column = self._cache[key] = {}
        if block_fp not in column:
            self._cached_pairs += 1
        column[block_fp] = entry
        return entry

    def _evict(self) -> None:
        """Drop least recently used fault maps' results down to ``CACHE_SIZE``."""
        while self._cached_pairs > self.CACHE_SIZE:
            _, column = self._cache.popitem(last=False)
            self._cached_pairs -= len(column)
            self.stats.cache_evictions += len(column)

    def clear_cache(self) -> None:
        self._cache.clear()
        self._cached_pairs = 0

    def __len__(self) -> int:
        return self._cached_pairs

    # ------------------------------------------------------------------ #
    # Front-ends
    # ------------------------------------------------------------------ #
    def plan_pairwise(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> Tuple[np.ndarray, np.ndarray, PermutationProvider]:
        """Costs, SA1 mismatches and row permutations of all pairs.

        Returns ``(costs, sa1_mismatches, permutation_for)`` where the two
        arrays have shape ``(len(blocks), len(fault_maps))`` and
        ``permutation_for(i, j)`` returns a copy of the solver-exact row
        permutation of pair ``(i, j)``.  Every value is bit-identical to what
        the seed per-pair loop produces.
        """
        num_blocks = len(blocks)
        num_maps = len(fault_maps)
        costs = np.zeros((num_blocks, num_maps), dtype=np.float64)
        sa1_mismatches = np.zeros((num_blocks, num_maps), dtype=np.float64)
        if num_blocks == 0 or num_maps == 0:
            return costs, sa1_mismatches, lambda i, j: np.arange(0, dtype=np.int64)
        self.stats.pairs_total += num_blocks * num_maps
        stacks = _stack_and_dedupe(blocks, fault_maps)
        faulty_cols, block_fps = stacks.faulty, stacks.block_fps
        block_uid, map_uid = stacks.block_uid, stacks.map_uid
        num_ub, num_um = len(block_fps), len(stacks.map_fps)
        self.stats.fault_free_pairs += num_blocks * (num_maps - faulty_cols.size)
        self.stats.duplicate_pairs += num_blocks * faulty_cols.size - num_ub * num_um

        # -- resolve unique pairs through the cache ----------------------- #
        # One lookup per unique fault map, then its unique blocks in one pass:
        # ``found[um][ub]`` is the entry of unique block ``ub`` against unique
        # map ``um``, ``None`` until solved.  The counters move once per call.
        found: List[List[Optional[_PairEntry]]] = []
        to_solve: List[Tuple[int, int]] = []
        for um, map_fp in enumerate(stacks.map_fps):
            column = self._column(map_fp)
            entries = (
                [None] * num_ub if column is None else list(map(column.get, block_fps))
            )
            if None in entries:
                to_solve.extend(
                    (ub, um) for ub, entry in enumerate(entries) if entry is None
                )
            found.append(entries)
        self.stats.cache_hits += num_ub * num_um - len(to_solve)
        self.stats.cache_misses += len(to_solve)

        if to_solve:
            for (ub, um), entry in self._solve_pairs_batched(stacks, to_solve).items():
                found[um][ub] = entry
            self._evict()

        # -- scatter the unique results to the full (B, M) grids ---------- #
        if faulty_cols.size:
            flat = list(chain.from_iterable(found))
            grid = np.ix_(map_uid[faulty_cols], block_uid)
            for out, field in ((costs, _COST), (sa1_mismatches, _SA1_MISMATCH)):
                unique = np.fromiter(map(field, flat), np.float64, len(flat))
                out[:, faulty_cols] = unique.reshape(num_um, num_ub)[grid].T

        rows = fault_maps[0].shape[0]

        def permutation_for(i: int, j: int) -> np.ndarray:
            um = map_uid[j]
            if um < 0:
                return np.arange(rows, dtype=np.int64)
            return found[um][block_uid[i]].permutation.copy()

        return costs, sa1_mismatches, permutation_for

    def pair_results(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> List[Tuple[float, np.ndarray, float]]:
        """``(cost, row permutation, SA1 mismatch)`` of each zipped pair.

        Pair ``k`` is ``(blocks[k], fault_maps[k])``: the (block, crossbar)
        pairs of one plan, whose row permutations the post-deployment refresh
        recomputes.  They go through the stacks, dedupe, pair cache and
        batched solve :meth:`plan_pairwise` uses, so a pair against an
        unchanged fault map is a cache hit, and every value is bit-identical
        to the seed per-pair solve.
        """
        if len(blocks) != len(fault_maps):
            raise ValueError(
                f"{len(blocks)} blocks do not pair with {len(fault_maps)} fault maps"
            )
        if not len(blocks):
            return []
        self.stats.pairs_total += len(blocks)
        stacks = _stack_and_dedupe(blocks, fault_maps)
        block_uid = stacks.block_uid.tolist()
        map_uid = stacks.map_uid.tolist()

        # Unique faulty pairs grouped by fault map: one lookup per map.
        blocks_of_map: Dict[int, Dict[int, None]] = {}
        for ub, um in zip(block_uid, map_uid):
            if um >= 0:
                blocks_of_map.setdefault(um, {})[ub] = None
        num_unique = sum(map(len, blocks_of_map.values()))
        self.stats.fault_free_pairs += len(blocks) - stacks.faulty.size
        self.stats.duplicate_pairs += stacks.faulty.size - num_unique

        found: Dict[Tuple[int, int], _PairEntry] = {}
        to_solve: List[Tuple[int, int]] = []
        for um, ubs in blocks_of_map.items():
            column = self._column(stacks.map_fps[um]) or {}
            for ub in ubs:
                entry = column.get(stacks.block_fps[ub])
                if entry is None:
                    to_solve.append((ub, um))
                else:
                    found[ub, um] = entry
        self.stats.cache_hits += num_unique - len(to_solve)
        self.stats.cache_misses += len(to_solve)
        if to_solve:
            found.update(self._solve_pairs_batched(stacks, to_solve))
            self._evict()

        identity = np.arange(stacks.masks.shape[1], dtype=np.int64)
        fault_free = _PairEntry(0.0, 0.0, identity)
        entries = [
            found[ub, um] if um >= 0 else fault_free
            for ub, um in zip(block_uid, map_uid)
        ]
        return [(e.cost, e.permutation.copy(), e.sa1_mismatch) for e in entries]

    # ------------------------------------------------------------------ #
    # Batched solve
    # ------------------------------------------------------------------ #
    def _solve_pairs_batched(
        self, stacks: _Stacks, to_solve: List[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], _PairEntry]:
        """Solve and cache the uncached unique pairs ``(ub, um)`` of a call.

        Returns each pair's entry, keyed by ``(ub, um)``.
        """
        # Stack only the blocks/maps that actually have pending pairs, so a
        # mostly-warm call (e.g. one new block against a cached pool) pays
        # tensor cost proportional to the new work, not to the full batch.
        solve_ubs = sorted({ub for ub, _ in to_solve})
        solve_ums = sorted({um for _, um in to_solve})
        compact_ub = {ub: k for k, ub in enumerate(solve_ubs)}
        compact_um = {um: k for k, um in enumerate(solve_ums)}
        rows, cols = stacks.masks.shape[1:]
        # Cost entries are counts ≤ cols (SA1-weighted: ≤ (1 + w)·cols).  When
        # they all fit exactly in float32 (< 2²⁴) the big contraction can run
        # in float32 — half the memory traffic — and still produce the exact
        # same integers as the seed's float64 matmuls; likewise an integral
        # sa1_weight allows the solve to run on an exact int32 stack.
        exact_f32 = (1.0 + self.sa1_weight) * cols < 2**24
        compute_dtype = np.float32 if exact_f32 else np.float64
        integral_weight = exact_f32 and float(self.sa1_weight).is_integer()
        ones_stack = stacks.masks[stacks.block_rep[solve_ubs]].astype(compute_dtype)
        zeros_stack = 1.0 - ones_stack
        map_index = stacks.map_rep[solve_ums]
        sa0_stack = stacks.planes[map_index, 0].astype(compute_dtype)
        sa1_stack = stacks.planes[map_index, 1].astype(compute_dtype)

        solved: Dict[Tuple[int, int], _PairEntry] = {}
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
                solved.update(
                    self._finish_pair_batch(
                        batch,
                        sa0_grid[ub_idx, um_idx],
                        sa1_grid[ub_idx, um_idx],
                        integral_weight,
                    )
                )
        else:
            # Sparse pending set (a refresh's pairs, or one new block against
            # a warm pool plus one refreshed map): batched per-pair matmuls
            # over just the pending pairs, so the cost stays proportional to
            # the new work.
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
                solved.update(
                    self._finish_pair_batch(batch, sa0_sel, sa1_sel, integral_weight)
                )
        for (ub, um), entry in solved.items():
            self._cache_store(stacks.map_fps[um], stacks.block_fps[ub], entry)
        return solved

    def _solve_stack(self, total: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row assignments and totals of a ``(P, R, S)`` cost stack.

        Row ``p`` is bit-identical to one scalar solve of ``total[p]``.
        """
        if self.row_method == "greedy":
            return greedy_assignment_batch(total)
        return solve_assignment_batch(total, method=self.row_method)

    def _finish_pair_batch(
        self,
        batch: List[Tuple[int, int]],
        sa0_sel: np.ndarray,
        sa1_sel: np.ndarray,
        integral_weight: bool,
    ) -> Dict[Tuple[int, int], _PairEntry]:
        """Zero-detect and solve one batch of gathered pair matrices.

        ``sa0_sel``/``sa1_sel`` are ``(len(batch), R, S)`` stacks of exact
        integer-valued cost components.  Returns each pair's entry.
        """
        entries: Dict[Tuple[int, int], _PairEntry] = {}
        # Vectorial zero-cost early-exit: both component matrices all-zero
        # means cost 0 and no SA1 mismatch under any permutation.  Such a
        # pair's cost matrix is the all-zero matrix, so one solve of it gives
        # every zero-cost pair its solver-exact permutation.
        nonzero = np.logical_or(
            sa0_sel.any(axis=(1, 2)), sa1_sel.any(axis=(1, 2))
        )
        zero = np.flatnonzero(~nonzero)
        if zero.size:
            assignments, _ = self._solve_stack(np.zeros((1, *sa0_sel.shape[1:])))
            self.stats.zero_cost_pairs += int(zero.size)
            for k in zero.tolist():
                entries[batch[k]] = _PairEntry(0.0, 0.0, assignments[0])
            if zero.size == len(batch):
                return entries
            live = np.flatnonzero(nonzero)
            sa0_sel = sa0_sel[live]
            sa1_sel = sa1_sel[live]
            batch = [batch[k] for k in live.tolist()]
        if integral_weight:
            # One exact int32 stack for the solver: the components are
            # float32 integers and sa1·w + sa0 < 2²⁴, so the float32
            # arithmetic is exact and a single cast gives the integers.
            total = sa1_sel * np.float32(self.sa1_weight)
            total += sa0_sel
            total = total.astype(np.int32)
        else:
            total = sa0_sel.astype(np.float64) + self.sa1_weight * (
                sa1_sel.astype(np.float64)
            )
        assignments, totals = self._solve_stack(total)
        self.stats.solver_pairs += len(batch)
        # Vectorised SA1 gather: per pair the seed's row sum of exact
        # integers, so the summation order cannot change it.
        sa1_totals = (
            np.take_along_axis(sa1_sel, assignments[:, :, None], axis=2)[:, :, 0]
            .astype(np.float64)
            .sum(axis=1)
        )
        for pair, cost, sa1, permutation in zip(
            batch, totals.tolist(), sa1_totals.tolist(), assignments
        ):
            entries[pair] = _PairEntry(cost, sa1, permutation)
        return entries
