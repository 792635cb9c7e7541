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
  unchanged BIST maps near-free.  Hit/miss counters are exported through
  :mod:`repro.pipeline.timing`.

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

Delta re-planning
-----------------
:meth:`MappingCostEngine.plan_pairwise` additionally returns a
:class:`PlanContext` capturing the per-pair results *and* warm-start
artifacts (Hungarian dual potentials, b-suitor column preference orders) of
a planning call.  Passing that context back on the next call turns planning
into a **delta** operation: fault-map fingerprints identify the columns that
actually changed, only the ``B × changed`` affected pairs are re-solved (the
rest are spliced from the context), and the re-solves are warm-started from
the predecessor's artifacts where bit-identity can be proved (see
:mod:`repro.core.batch_solvers`).  The delta path is bit-identical to a
from-scratch plan by construction; the invalidation rules (when a context is
rejected and a full re-plan runs instead) are documented as the fourth cache
protocol in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_solvers import (
    BATCH_SOLVERS,
    assignment_is_unique,
    bsuitor_assignment_batch,
    hungarian_assignment_batch,
    hungarian_warm_solve,
    solve_assignment_batch,
)
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
    #: Delta-planning counters.  ``delta_plans`` counts calls served by the
    #: delta path, ``delta_full_replans`` calls where a previous context was
    #: offered but invalidated (full re-plan ran instead).  In delta mode
    #: ``pairs_total`` counts only the *re-examined* pairs (B × changed
    #: columns); ``delta_pairs_reused`` counts the B × unchanged pairs spliced
    #: straight from the previous context, so per delta call
    #: ``pairs_total_delta + delta_pairs_reused_delta == B × M``.
    delta_plans: int = 0
    delta_full_replans: int = 0
    delta_maps_changed: int = 0
    delta_pairs_reused: int = 0
    #: Warm-started exact re-solves accepted (proved bit-identical) vs
    #: attempted-but-rejected (fell back to the cold solver).
    warm_start_hits: int = 0
    warm_start_fallbacks: int = 0

    @property
    def hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

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
            "mapping_delta_plans": float(self.delta_plans),
            "mapping_delta_full_replans": float(self.delta_full_replans),
            "mapping_delta_maps_changed": float(self.delta_maps_changed),
            "mapping_delta_pairs_reused": float(self.delta_pairs_reused),
            "mapping_warm_start_hits": float(self.warm_start_hits),
            "mapping_warm_start_fallbacks": float(self.warm_start_fallbacks),
        }

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


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

#: Warm-start artifacts of one solved pair, keyed by
#: ``(block fingerprint, fault-map fingerprint)`` in :class:`PlanContext`.
#: Hungarian pairs carry ``{"u", "v"}`` (final dual potentials); b-suitor
#: pairs carry ``{"col_orders"}`` (right-side preference orders as int16).
PairArtifacts = Dict[str, object]


@dataclass
class PlanContext:
    """Everything a later *delta* re-plan needs from a planning call.

    Produced by :meth:`MappingCostEngine.plan_pairwise` and accepted back by
    the same method.  The context is self-validating: a delta call checks the
    engine configuration, the batch shape and every block fingerprint before
    trusting it (see :meth:`MappingCostEngine._delta_invalid_reason`) and
    falls back to a full re-plan otherwise — the fourth cache protocol in
    ``docs/ARCHITECTURE.md``.

    ``entries`` is indexed ``[unique block id][map column]`` (``None`` for
    fault-free columns); duplicate columns share entry objects.  ``map_copies``
    holds defensive copies of the fault maps at plan time so a delta can diff
    *rows* (for b-suitor column-order reuse), not just fingerprints.
    """

    sa1_weight: float
    row_method: str
    block_fps: List[str]
    unique_block_fps: List[str]
    block_uid: np.ndarray
    map_fps: List[str]
    map_copies: List[FaultMap]
    fault_free: np.ndarray
    costs: np.ndarray
    sa1: np.ndarray
    entries: List[List[Optional[_PairEntry]]]
    artifacts: Dict[Tuple[str, str], PairArtifacts]

    @property
    def num_blocks(self) -> int:
        return len(self.block_fps)

    @property
    def num_maps(self) -> int:
        return len(self.map_fps)


@dataclass
class _PairwiseInfo:
    """Dedupe structures of one :meth:`MappingCostEngine._pairwise` call."""

    block_fps: List[str]
    unique_block_fps: List[str]
    block_uid: np.ndarray
    block_rep: List[int]
    map_fps: List[str]
    map_uid: np.ndarray
    map_rep: List[int]
    fault_free: np.ndarray
    entries: List[List[Optional[_PairEntry]]]
    captured_aux: Dict[Tuple[str, str], PairArtifacts]


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
    cache_size:
        Maximum number of pair results kept (LRU eviction).
    max_chunk_cells:
        Upper bound on the number of float64 elements materialised per batched
        chunk; keeps the ``(pairs, R, C)`` intermediates within a fixed
        memory budget on large batches.
    """

    #: Stop offering Hungarian warm-start seeds after this many rejected
    #: attempts with zero accepted (see the back-off note in ``_plan_delta``).
    WARM_START_BACKOFF = 64

    def __init__(
        self,
        sa1_weight: float = 4.0,
        row_method: str = "greedy",
        cache_size: int = 65536,
        max_chunk_cells: int = 16_000_000,
    ) -> None:
        if sa1_weight < 0:
            raise ValueError(f"sa1_weight must be non-negative, got {sa1_weight}")
        if row_method not in BATCH_SOLVERS:
            raise ValueError(
                f"unknown row method {row_method!r}; available: "
                f"{sorted(BATCH_SOLVERS)}"
            )
        if cache_size < 0:
            raise ValueError(f"cache_size must be non-negative, got {cache_size}")
        self.sa1_weight = float(sa1_weight)
        self.row_method = row_method
        self.cache_size = int(cache_size)
        self.max_chunk_cells = int(max_chunk_cells)
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
        if self.cache_size == 0:
            return entry
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
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
    def pairwise_costs(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> Tuple[np.ndarray, np.ndarray, PermutationProvider]:
        """Costs and SA1 mismatches for all pairs, permutations lazy.

        Returns ``(costs, sa1_mismatches, permutation_for)`` where the two
        arrays have shape ``(len(blocks), len(fault_maps))`` and
        ``permutation_for(i, j)`` materialises the solver-exact row
        permutation of pair ``(i, j)`` on demand.  Every value is
        bit-identical to what the seed per-pair loop produces.
        """
        costs, sa1_mismatches, permutation_for, _ = self._pairwise(
            blocks, fault_maps
        )
        return costs, sa1_mismatches, permutation_for

    def _pairwise(
        self,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
        capture: bool = False,
        hints: Optional[Callable[[str, int], Optional[Dict]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, PermutationProvider, _PairwiseInfo]:
        """:meth:`pairwise_costs` body, plus the dedupe structures.

        ``capture`` additionally collects warm-start artifacts (Hungarian
        duals, b-suitor preference orders) for every pair that reaches an
        exact batched solve.  ``hints(block_fp, map_index)`` — with
        ``map_index`` an index into ``fault_maps`` — may supply a warm-start
        hint for a pair; warm results are only accepted when provably
        bit-identical to the cold solve (see :meth:`_warm_solve_pair`).
        """
        num_blocks = len(blocks)
        num_maps = len(fault_maps)
        costs = np.zeros((num_blocks, num_maps), dtype=np.float64)
        sa1_mismatches = np.zeros((num_blocks, num_maps), dtype=np.float64)
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

        if num_blocks == 0 or num_maps == 0:
            info = _PairwiseInfo(
                block_fps=block_fps,
                unique_block_fps=[block_fps[i] for i in block_rep],
                block_uid=block_uid,
                block_rep=block_rep,
                map_fps=[fmap.fingerprint for fmap in fault_maps],
                map_uid=np.full(num_maps, -1, dtype=np.int64),
                map_rep=[],
                fault_free=np.array(
                    [fmap.is_fault_free() for fmap in fault_maps], dtype=bool
                ),
                entries=[[] for _ in block_rep],
                captured_aux={},
            )
            return (
                costs,
                sa1_mismatches,
                lambda i, j: np.arange(0, dtype=np.int64),
                info,
            )

        self.stats.pairs_total += num_blocks * num_maps

        map_fps = [fmap.fingerprint for fmap in fault_maps]
        fault_free = np.array([fmap.is_fault_free() for fmap in fault_maps])
        unique_map_of: Dict[str, int] = {}
        map_rep: List[int] = []
        map_uid = np.full(num_maps, -1, dtype=np.int64)
        for j, fmap in enumerate(fault_maps):
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
        entries: List[List[Optional[_PairEntry]]] = [
            [None] * num_um for _ in range(num_ub)
        ]
        to_solve: List[Tuple[int, int]] = []
        for ub in range(num_ub):
            bfp = block_fps[block_rep[ub]]
            for um in range(num_um):
                key = self._key(bfp, map_fps[map_rep[um]])
                entry = self._cache_lookup(key)
                if entry is None:
                    to_solve.append((ub, um))
                else:
                    entries[ub][um] = entry

        captured_aux: Dict[Tuple[str, str], PairArtifacts] = {}
        keep_aux: Optional[Callable[[int, int, PairArtifacts], None]] = None
        if capture:

            def keep_aux(ub: int, um: int, aux: PairArtifacts) -> None:
                captured_aux[
                    (block_fps[block_rep[ub]], map_fps[map_rep[um]])
                ] = aux

        hint_for: Optional[Callable[[int, int], Optional[Dict]]] = None
        if hints is not None:

            def hint_for(ub: int, um: int) -> Optional[Dict]:
                return hints(block_fps[block_rep[ub]], map_rep[um])

        if to_solve:
            self._solve_pairs_batched(blocks, fault_maps, block_rep, map_rep,
                                      block_fps, map_fps, to_solve, entries,
                                      keep_aux=keep_aux, hint_for=hint_for)

        # -- scatter the unique results to the full (B, M) grids ---------- #
        faulty_cols = np.flatnonzero(~fault_free)
        if faulty_cols.size:
            unique_costs = np.empty((num_ub, num_um), dtype=np.float64)
            unique_sa1 = np.empty((num_ub, num_um), dtype=np.float64)
            for ub in range(num_ub):
                for um in range(num_um):
                    unique_costs[ub, um] = entries[ub][um].cost
                    unique_sa1[ub, um] = entries[ub][um].sa1_mismatch
            col_uid = map_uid[faulty_cols]
            costs[:, faulty_cols] = unique_costs[np.ix_(block_uid, col_uid)]
            sa1_mismatches[:, faulty_cols] = unique_sa1[np.ix_(block_uid, col_uid)]

        def permutation_for(i: int, j: int) -> np.ndarray:
            if fault_free[j]:
                n = np.asarray(blocks[i]).shape[0]
                return np.arange(n, dtype=np.int64)
            entry = entries[block_uid[i]][map_uid[j]]
            return self._materialise_permutation(entry, blocks[i], fault_maps[j])

        info = _PairwiseInfo(
            block_fps=block_fps,
            unique_block_fps=[block_fps[i] for i in block_rep],
            block_uid=block_uid,
            block_rep=block_rep,
            map_fps=map_fps,
            map_uid=map_uid,
            map_rep=map_rep,
            fault_free=fault_free,
            entries=entries,
            captured_aux=captured_aux,
        )
        return costs, sa1_mismatches, permutation_for, info

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
        keep_aux: Optional[Callable[[int, int, PairArtifacts], None]] = None,
        hint_for: Optional[Callable[[int, int], Optional[Dict]]] = None,
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
            map_chunk = max(1, self.max_chunk_cells // grid_cells)
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
                    keep_aux=keep_aux,
                    hint_for=hint_for,
                )
        else:
            # Sparse pending set (e.g. one new block against a warm pool plus
            # one refreshed map): batched per-pair matmuls over just the
            # pending pairs, so the cost stays proportional to the new work.
            pair_chunk = max(1, self.max_chunk_cells // max(rows * cols * 6, 1))
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
                    batch, sa0_sel, sa1_sel, integral_weight, record,
                    keep_aux=keep_aux, hint_for=hint_for,
                )

    def _finish_pair_batch(
        self,
        batch: List[Tuple[int, int]],
        sa0_sel: np.ndarray,
        sa1_sel: np.ndarray,
        integral_weight: bool,
        record: Callable[[int, int, _PairEntry], None],
        keep_aux: Optional[Callable[[int, int, PairArtifacts], None]] = None,
        hint_for: Optional[Callable[[int, int], Optional[Dict]]] = None,
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
            # Warm-start attempts first (delta re-planning): a pair with a
            # hint from the previous plan is re-solved from that plan's
            # artifacts, and the warm result is accepted only when provably
            # bit-identical to what the cold stack solve would return.
            # b-suitor hints stay batched — all hinted pairs solve in ONE
            # lockstep call with their cached preference orders spliced in —
            # while Hungarian warm solves are inherently scalar (per-pair JV
            # augmentation + uniqueness certificate).
            hints = [
                hint_for(ub, um) if hint_for is not None else None
                for ub, um in live_pairs
            ]
            warm_results: Dict[int, Tuple[_PairEntry, PairArtifacts]] = {}
            if self.row_method == "bsuitor":
                warm_ks = [k for k, hint in enumerate(hints) if hint is not None]
                if warm_ks:
                    col_orders = [
                        (
                            hints[k]["valid"],
                            np.asarray(hints[k]["col_orders"], dtype=np.int64),
                        )
                        for k in warm_ks
                    ]
                    assignments, warm_totals, aux = bsuitor_assignment_batch(
                        total[np.array(warm_ks, dtype=np.int64)],
                        col_orders=col_orders,
                        return_aux=True,
                    )
                    rows = np.arange(assignments.shape[1])
                    for idx, k in enumerate(warm_ks):
                        permutation = assignments[idx]
                        entry = _PairEntry(
                            cost=float(warm_totals[idx]),
                            sa1_mismatch=float(
                                sa1_f64[k][rows, permutation].sum()
                            ),
                            permutation=permutation,
                        )
                        warm_results[k] = (
                            entry,
                            {
                                "col_orders": aux["col_orders"][idx].astype(
                                    np.int16
                                )
                            },
                        )
            elif self.row_method == "hungarian":
                for k, hint in enumerate(hints):
                    if hint is None:
                        continue
                    warm = self._warm_solve_pair(total[k], sa1_f64[k], hint)
                    if warm is None:
                        self.stats.warm_start_fallbacks += 1
                    else:
                        warm_results[k] = warm
            cold: List[int] = []
            for k, (ub, um) in enumerate(live_pairs):
                warm = warm_results.get(k)
                if warm is None:
                    cold.append(k)
                    continue
                entry, aux = warm
                self.stats.warm_start_hits += 1
                self.stats.solver_pairs += 1
                record(ub, um, entry)
                if keep_aux is not None:
                    keep_aux(ub, um, aux)
            if cold:
                cold_idx = np.array(cold, dtype=np.int64)
                cold_pairs = [live_pairs[k] for k in cold]
                assignments, totals, duals, suitor_aux = self._solve_exact_stack(
                    total[cold_idx], capture=keep_aux is not None
                )
                self.stats.solver_pairs += len(cold_pairs)
                self.stats.batched_solver_pairs += len(cold_pairs)
                rows = np.arange(assignments.shape[1])
                for k, (ub, um) in enumerate(cold_pairs):
                    permutation = assignments[k]
                    sa1 = float(sa1_f64[cold_idx[k], rows, permutation].sum())
                    record(
                        ub,
                        um,
                        _PairEntry(
                            cost=float(totals[k]),
                            sa1_mismatch=sa1,
                            permutation=permutation,
                        ),
                    )
                    if keep_aux is None:
                        continue
                    if duals is not None:
                        keep_aux(
                            ub, um, {"u": duals[0][k], "v": duals[1][k]}
                        )
                    elif suitor_aux is not None:
                        keep_aux(
                            ub,
                            um,
                            {
                                "col_orders": suitor_aux["col_orders"][k].astype(
                                    np.int16
                                )
                            },
                        )

    def _solve_exact_stack(
        self, total: np.ndarray, capture: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple], Optional[Dict]]:
        """Cold exact stack solve, optionally with warm-start artifacts.

        Returns ``(assignments, totals, duals, suitor_aux)`` where exactly
        one of ``duals`` (Hungarian ``(u, v)`` stacks) / ``suitor_aux``
        (b-suitor ``{"col_orders", "wmax"}``) is non-``None`` when
        ``capture`` is requested.  The capture flag changes only what is
        *returned*, never the solve itself — the assignments are the same
        arrays :func:`~repro.core.batch_solvers.solve_assignment_batch`
        produces.
        """
        if not capture:
            assignments, totals = solve_assignment_batch(
                total, method=self.row_method
            )
            return assignments, totals, None, None
        if self.row_method == "hungarian":
            assignments, totals, duals = hungarian_assignment_batch(
                total, return_duals=True
            )
            return assignments, totals, duals, None
        assignments, totals, suitor_aux = bsuitor_assignment_batch(
            total, return_aux=True
        )
        return assignments, totals, None, suitor_aux

    def _warm_solve_pair(
        self, total: np.ndarray, sa1_cost: np.ndarray, hint: Dict
    ) -> Optional[Tuple[_PairEntry, PairArtifacts]]:
        """Attempt one warm-started Hungarian solve; ``None`` = cold path.

        The contract is *proved bit-identity, never assumed*: only attempted
        for square matrices with an integral ``sa1_weight`` (cost entries and
        duals then stay exact integers in float64).  The warm JV solve is
        exact, and the result is accepted only when
        :func:`~repro.core.batch_solvers.assignment_is_unique` certifies the
        optimum is unique — in which case *every* exact solver, in particular
        the cold batched JV, returns the same assignment; cost/SA1 reductions
        use the cold path's exact expressions.  Certificate failure → cold
        fallback (common on degenerate small-integer matrices, where many
        optimal assignments tie; the delta win there comes from column
        splicing, not warm duals).

        b-suitor warm solves do not come through here — they run batched in
        :meth:`_finish_pair_batch`: cached right-side preference orders are
        reused for columns whose *cost* column is unchanged (fault-map row
        untouched by the delta).  The per-matrix weight offset ``wmax`` may
        differ: weights are ``wmax - cost + 1``, and shifting a column by a
        constant (exact small-integer float64 arithmetic) preserves every
        pairwise comparison, so the cached comparison-sort order is exactly
        what a fresh ``argsort`` of the new weights would produce — identical
        by construction, no certificate needed.
        """
        n_rows, n_cols = total.shape
        if hint.get("method") != "hungarian" or n_rows != n_cols:
            return None
        seed = hint.get("seed")
        if seed is None:
            return None
        rows = np.arange(n_rows)
        assignment, _, (u, v), _ = hungarian_warm_solve(
            total, hint["u"], hint["v"], seed
        )
        if not assignment_is_unique(total, u, v, assignment):
            return None
        entry = _PairEntry(
            cost=float(total[rows, assignment].sum()),
            sa1_mismatch=float(sa1_cost[rows, assignment].sum()),
            permutation=assignment,
        )
        return entry, {"u": u, "v": v}

    # ------------------------------------------------------------------ #
    # Delta re-planning front-end (plan → delta → re-plan)
    # ------------------------------------------------------------------ #
    def plan_pairwise(
        self,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
        prev_context: Optional[PlanContext] = None,
    ) -> Tuple[np.ndarray, np.ndarray, PermutationProvider, PlanContext]:
        """:meth:`pairwise_costs` that also returns a reusable plan context.

        Without ``prev_context`` this is a from-scratch plan that captures
        warm-start artifacts.  With a valid ``prev_context`` only the
        ``B × changed`` pairs whose fault-map fingerprints differ are
        re-examined (warm-started where provable); everything else is spliced
        from the context.  Both paths return values bit-identical to
        :meth:`pairwise_costs` — the invalidation rules are the fourth cache
        protocol in ``docs/ARCHITECTURE.md``.
        """
        if prev_context is not None:
            reason = self._delta_invalid_reason(prev_context, blocks, fault_maps)
            if reason is None:
                return self._plan_delta(blocks, fault_maps, prev_context)
            self.stats.delta_full_replans += 1
        costs, sa1, permutation_for, info = self._pairwise(
            blocks, fault_maps, capture=True
        )
        context = self._context_from_info(costs, sa1, fault_maps, info)
        return costs, sa1, permutation_for, context

    def _context_from_info(
        self,
        costs: np.ndarray,
        sa1: np.ndarray,
        fault_maps: Sequence[FaultMap],
        info: _PairwiseInfo,
    ) -> PlanContext:
        num_um = len(info.map_rep)
        # Re-index entries from [uid][unique map] to [uid][column]: duplicate
        # columns share the same entry object, fault-free columns get None.
        entries_by_col: List[List[Optional[_PairEntry]]] = []
        for ub in range(len(info.block_rep)):
            row: List[Optional[_PairEntry]] = []
            for j in range(len(info.map_fps)):
                um = int(info.map_uid[j])
                row.append(info.entries[ub][um] if um >= 0 and num_um else None)
            entries_by_col.append(row)
        return PlanContext(
            sa1_weight=self.sa1_weight,
            row_method=self.row_method,
            block_fps=list(info.block_fps),
            unique_block_fps=list(info.unique_block_fps),
            block_uid=info.block_uid.copy(),
            map_fps=list(info.map_fps),
            map_copies=[fmap.copy() for fmap in fault_maps],
            fault_free=info.fault_free.copy(),
            costs=costs.copy(),
            sa1=sa1.copy(),
            entries=entries_by_col,
            artifacts=dict(info.captured_aux),
        )

    def _delta_invalid_reason(
        self,
        prev: PlanContext,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
    ) -> Optional[str]:
        """Why ``prev`` cannot seed a delta plan for these inputs (or None).

        The rules (fourth cache protocol): the context must have been
        produced under the same engine configuration (``sa1_weight``,
        ``row_method``), for the same batch shape, with every block
        fingerprint unchanged, and every fault map must keep its shape.  Any
        violation forces a full re-plan.
        """
        if prev.sa1_weight != self.sa1_weight or prev.row_method != self.row_method:
            return "engine-config"
        if len(blocks) != prev.num_blocks or len(fault_maps) != prev.num_maps:
            return "shape"
        if [block_fingerprint(b) for b in blocks] != prev.block_fps:
            return "blocks-changed"
        for fmap, old in zip(fault_maps, prev.map_copies):
            if fmap.shape != old.shape:
                return "map-shape"
        return None

    def _plan_delta(
        self,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
        prev: PlanContext,
    ) -> Tuple[np.ndarray, np.ndarray, PermutationProvider, PlanContext]:
        """Re-plan against ``fault_maps`` touching only the changed columns."""
        num_blocks, num_maps = prev.num_blocks, prev.num_maps
        map_fps = [fmap.fingerprint for fmap in fault_maps]
        changed = [j for j in range(num_maps) if map_fps[j] != prev.map_fps[j]]
        self.stats.delta_plans += 1
        self.stats.delta_maps_changed += len(changed)
        self.stats.delta_pairs_reused += num_blocks * (num_maps - len(changed))

        costs = prev.costs.copy()
        sa1 = prev.sa1.copy()
        fault_free = prev.fault_free.copy()
        entries = [list(row) for row in prev.entries]
        artifacts = dict(prev.artifacts)
        map_copies = list(prev.map_copies)
        uid_of = {fp: uid for uid, fp in enumerate(prev.unique_block_fps)}

        sub_provider: Optional[PermutationProvider] = None
        changed_pos: Dict[int, int] = {}
        if changed:
            changed_maps = [fault_maps[j] for j in changed]
            changed_pos = {j: c for c, j in enumerate(changed)}
            # Per changed map: which cost-matrix columns (crossbar rows) kept
            # a bit-identical fault row — those are the b-suitor preference
            # columns a warm solve may reuse.
            unchanged_rows: List[np.ndarray] = []
            for c, j in enumerate(changed):
                old, new = prev.map_copies[j], fault_maps[j]
                unchanged_rows.append(
                    ~((old.sa0 != new.sa0) | (old.sa1 != new.sa1)).any(axis=1)
                )
            integral = float(self.sa1_weight).is_integer()

            def hint_source(block_fp: str, inner_idx: int) -> Optional[Dict]:
                j = changed[inner_idx]
                aux = prev.artifacts.get((block_fp, prev.map_fps[j]))
                if aux is None:
                    return None
                if self.row_method == "hungarian":
                    if not integral:
                        return None
                    if (
                        self.stats.warm_start_hits == 0
                        and self.stats.warm_start_fallbacks
                        >= self.WARM_START_BACKOFF
                    ):
                        # Adaptive back-off: on degenerate small-integer cost
                        # matrices the uniqueness certificate almost never
                        # passes (multiple optima are the norm), so after
                        # this many futile attempts with zero accepted the
                        # engine stops offering dual seeds — the attempt +
                        # certificate would be pure overhead on top of the
                        # cold solve it falls back to anyway.
                        return None
                    uid = uid_of.get(block_fp)
                    entry = entries[uid][j] if uid is not None else None
                    seed = entry.permutation if entry is not None else None
                    if seed is None:
                        return None
                    return {
                        "method": "hungarian",
                        "u": aux["u"],
                        "v": aux["v"],
                        "seed": seed,
                    }
                if self.row_method == "bsuitor":
                    valid = unchanged_rows[inner_idx]
                    if not valid.any():
                        # Every fault-map row changed: no cached preference
                        # column is reusable, so this is a plain cold pair
                        # (not a warm fallback — no warm information exists).
                        return None
                    return {
                        "method": "bsuitor",
                        "valid": valid,
                        "col_orders": aux["col_orders"],
                    }
                return None

            sub_costs, sub_sa1, sub_provider, sub_info = self._pairwise(
                blocks, changed_maps, capture=True, hints=hint_source
            )
            # Splice the re-examined columns into the carried-over grids.
            for c, j in enumerate(changed):
                costs[:, j] = sub_costs[:, c]
                sa1[:, j] = sub_sa1[:, c]
                fault_free[j] = bool(sub_info.fault_free[c])
                map_copies[j] = fault_maps[j].copy()
                um = int(sub_info.map_uid[c])
                for uid in range(len(prev.unique_block_fps)):
                    entries[uid][j] = (
                        sub_info.entries[uid][um] if um >= 0 else None
                    )
            artifacts.update(sub_info.captured_aux)
            # Drop artifacts no longer reachable from any current column so
            # repeated deltas cannot grow the context without bound.
            live_fps = set(map_fps)
            artifacts = {
                key: aux for key, aux in artifacts.items() if key[1] in live_fps
            }

        def permutation_for(i: int, j: int) -> np.ndarray:
            c = changed_pos.get(j)
            if c is not None:
                return sub_provider(i, c)
            if fault_free[j]:
                n = np.asarray(blocks[i]).shape[0]
                return np.arange(n, dtype=np.int64)
            entry = entries[prev.block_uid[i]][j]
            return self._materialise_permutation(entry, blocks[i], fault_maps[j])

        context = PlanContext(
            sa1_weight=self.sa1_weight,
            row_method=self.row_method,
            block_fps=list(prev.block_fps),
            unique_block_fps=list(prev.unique_block_fps),
            block_uid=prev.block_uid.copy(),
            map_fps=map_fps,
            map_copies=map_copies,
            fault_free=fault_free,
            costs=costs.copy(),
            sa1=sa1.copy(),
            entries=entries,
            artifacts=artifacts,
        )
        return costs, sa1, permutation_for, context
