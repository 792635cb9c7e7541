"""Batched mapping cost engine behind Algorithm 1 (fault-aware mapping).

The seed formulation of Algorithm 1's inner loop is a Python ``B × M``
double loop: for every (block, crossbar) pair it builds the row-mismatch
matrix with two dense matmuls and runs a full assignment solve — and then
throws away all but ``B`` of the ``B × M`` permutations it computed.  That
loop now lives only in ``tests/reference/mapping.py``; this engine produces
results **bit-identical** to it (the equivalence is enforced by
``tests/test_core_cost_engine.py``) while doing orders of magnitude less
work:

* **One product per chunk** — the row-cost matrix of block ``B`` on fault
  map ``(SA0, SA1)`` is ``B·SA0ᵀ + w·(1 − B)·SA1ᵀ = B·(SA0 − w·SA1)ᵀ +
  w·n1``, where ``n1[s]`` counts the SA1 cells of crossbar row ``s``.  All
  pending blocks are stacked into one ``(B·R, C + 1)`` matrix (a column of
  ones carries the ``w·n1`` term) and every pending map into one signed
  ``(C + 1, S)`` plane, so a single float32 ``matmul`` per map chunk writes
  the solver stack pair by pair in map order: a cold plan's stack is the
  product itself, with no transpose or gather.  Every partial sum is a
  multiple of ``2^-q`` no larger than ``(1 + w)·C`` (``w·2^q`` integral), so
  the float32 product is exact whenever ``(1 + w)·C·2^q < 2²⁴`` — every
  weight in use — and the values equal the seed's float64 ones; summation
  order cannot change them, which is what makes bit-identical tie-breaking
  downstream possible.  Any other weight puts a power of two ``K > C`` in
  its place, reads both counts apart from ``sa0 + K·sa1`` and combines them
  with the seed's float64 formula.  A refresh's sparse pending set
  multiplies operands gathered per pair.
* **Skip + dedupe** — fault-free crossbars short-circuit (cost 0, identity
  permutation) without touching the tensors, and duplicate blocks/fault maps
  (detected by cheap content fingerprints) are solved once and shared.
* **Zero-cost pairs from column occupancy** — a pair whose ``sa0`` *and*
  ``sa1`` matrices are identically zero has cost 0 and SA1 mismatch 0 under
  *any* permutation.  That is known before any product: no column holds
  both a one of the block and an SA0 cell, and every column holding an SA1
  cell is all ones in the block.  Its cost matrix is the all-zero matrix,
  so every such pair gets the solver's permutation of that one matrix: one
  solve per call serves all of them.
* **SA1 mismatch from the chosen rows** — a solved pair's SA1 mismatch is
  ``Σ_r (n1[perm r] − B[r]·SA1[perm r])`` over its assignment only, counted
  over packed bits.
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
row-cost matrices      ``B·M`` Python calls, 2 matmuls each            one float32 matmul per map chunk over
                                                                       the pending blocks (per-pair matmuls
                                                                       for a sparse pending set)
zero-cost pairs        solved like any other                           found from column occupancy, no
                                                                       product; one all-zero solve per call
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
pairs above).  Everything else is restructuring of identical arithmetic.

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

Two things make the unchanged part of a re-plan cheap.  The engine keeps the
previous call's stacks: an equal block stack keeps its dedupe, and a fault
map equal to the one at its position keeps its fingerprint, so only the
changed maps are hashed.  And each cached map's column keeps the grid row of
the last plan that read it, which a plan of the same unique blocks takes
whole.  Both are checked against the new input, never trusted, so they
change no value and no counter (``tests/test_core_delta_planning.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
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


class _PairEntry(NamedTuple):
    """Cached result for one (block pattern, fault pattern) pair."""

    cost: float
    sa1_mismatch: float
    permutation: np.ndarray


_COST = itemgetter(0)
_SA1_MISMATCH = itemgetter(1)


class _Column:
    """One fault map's cached pair results and the grid row of its last plan.

    ``entries[block_fp]`` is the result of one pair.  ``blocks`` lists the
    unique block fingerprints of the last plan that read this map, and
    ``row``, ``costs`` and ``sa1`` hold that plan's entries, costs and SA1
    mismatches in the same order.  A re-plan of the same blocks reads an
    unchanged map's grid row from them, with no per-block lookup; entries
    are never removed from a column, so the row stays valid for as long as
    the column is cached.
    """

    __slots__ = ("entries", "blocks", "row", "costs", "sa1")

    def __init__(self) -> None:
        self.entries: Dict[str, _PairEntry] = {}
        self.blocks: Optional[List[str]] = None
        self.row: List[_PairEntry] = []
        self.costs = self.sa1 = np.zeros(0)

    def remember(self, blocks: List[str], row: List[_PairEntry]) -> None:
        """Keep ``row``, the entries of ``blocks``, as this map's grid row."""
        self.blocks = blocks
        self.row = row
        self.costs = np.fromiter(map(_COST, row), np.float64, len(row))
        self.sa1 = np.fromiter(map(_SA1_MISMATCH, row), np.float64, len(row))

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
    blocks: Sequence[np.ndarray],
    fault_maps: Sequence[FaultMap],
    previous: Optional[_Stacks] = None,
) -> _Stacks:
    """Stack, fingerprint and dedupe a call's blocks and fault maps.

    The cost depends on ``block > 0`` and the fault masks only, so one stack
    of each is all the engine reads.  ``previous`` is the engine's previous
    call: an unchanged block stack keeps its dedupe, and a fault map equal to
    the one at its position there keeps its fingerprint, without hashing.
    """
    shape = fault_maps[0].shape
    for fmap in fault_maps:
        if fmap.shape != shape:
            raise ValueError(f"fault map shape {fmap.shape} does not match {shape}")
    masks = np.array(blocks) > 0
    if masks.shape[1:] != shape:
        raise ValueError(
            f"block shape {masks.shape[1:]} does not match fault map {shape}"
        )
    num_maps = len(fault_maps)
    planes = np.array(
        [plane for fmap in fault_maps for plane in (fmap.sa0, fmap.sa1)]
    ).reshape(num_maps, 2, *shape)
    faulty = np.flatnonzero(planes.reshape(num_maps, -1).any(axis=1))
    if (
        previous is not None
        and previous.masks.shape == masks.shape
        and np.array_equal(previous.masks, masks)
    ):
        block_uid, block_rep, block_fps = (
            previous.block_uid, previous.block_rep, previous.block_fps,
        )
    else:
        block_uid, block_rep, block_fps = _dedupe(pattern_fingerprints(masks[:, None]))
    fresh = faulty
    if previous is not None and previous.planes.shape == planes.shape:
        unchanged = (planes == previous.planes).reshape(num_maps, -1).all(axis=1)
        fresh = faulty[~unchanged[faulty]]
    hashed = dict(zip(fresh.tolist(), pattern_fingerprints(planes[fresh])))
    if len(hashed) < faulty.size:
        kept, kept_uid = previous.map_fps, previous.map_uid.tolist()
        map_fps_at = [
            hashed[j] if j in hashed else kept[kept_uid[j]] for j in faulty.tolist()
        ]
    else:
        map_fps_at = list(hashed.values())
    map_numbers, map_first, map_fps = _dedupe(map_fps_at)
    map_uid = np.full(num_maps, -1, dtype=np.int64)
    map_uid[faulty] = map_numbers
    return _Stacks(
        masks, planes, faulty, block_uid, block_rep, block_fps, map_uid,
        faulty[map_first], map_fps,
    )


def _float32_exact(weight: float, cols: int) -> bool:
    """Whether float32 holds every partial sum of the pair product exactly.

    Each term of ``B·(SA0 − w·SA1)ᵀ + w·n1`` is 0, 1, −w or w, so with
    ``w·2^q`` integral every partial sum is a multiple of ``2^-q`` of
    magnitude at most ``(1 + w)·C``: exact while ``(1 + w)·C·2^q < 2²⁴``.
    """
    numerator, denominator = weight.as_integer_ratio()
    return (denominator + numerator) * cols < 2**24


class _PairOperands:
    """Factors of the row-cost matrices of a call's pending pairs.

    Block ``B`` on fault map ``(SA0, SA1)`` costs ``sa0 + w·sa1`` per (block
    row, crossbar row), with ``sa0 = B·SA0ᵀ`` (ones on SA0 cells) and
    ``sa1 = (1 − B)·SA1ᵀ = n1 − B·SA1ᵀ`` (zeros on SA1 cells), ``n1[s]``
    being the SA1 cells of crossbar row ``s``.  So one product gives the
    whole matrix, ``[B, 1]·[SA0 − w·SA1, w·n1]ᵀ``: exact integers (or dyadic
    values) in float32 whenever :func:`_float32_exact` allows.  Outside that
    range the same product, with a power of two ``K > C`` in place of ``w``,
    reads ``sa0 + K·sa1`` with ``sa0 ≤ C < K``, and both counts come apart
    exactly for the seed's float64 formula.
    """

    def __init__(self, masks: np.ndarray, planes: np.ndarray, weight: float) -> None:
        num_blocks, rows, cols = masks.shape
        self.rows = rows
        self.weight = weight
        self.exact = _float32_exact(weight, cols)
        self.gemm_weight = weight if self.exact else float(1 << cols.bit_length())
        dtype = (
            np.float32 if _float32_exact(self.gemm_weight, cols) else np.float64
        )
        self.lhs = np.ones((num_blocks, rows, cols + 1), dtype=dtype)
        self.lhs[:, :, :cols] = masks
        # Rows packed to bits for the SA1 counts and the SA1 mismatch.
        self.packed_masks = np.packbits(masks, axis=2)
        self.packed_sa1 = np.packbits(planes[:, 1], axis=2)
        sa1_rows = np.bitwise_count(self.packed_sa1).sum(axis=2, dtype=np.int64)
        self.sa1_cells = sa1_rows.sum(axis=1)
        # SA0 and SA1 cells are disjoint, so the signed plane is SA0 with
        # ``−w`` on the SA1 cells; it is stored transposed, one ``(C + 1, S)``
        # matrix per map, the layout the product reads fastest.
        self.rhs = np.empty((len(planes), cols + 1, rows), dtype=dtype)
        signed = self.rhs[:, :cols]
        signed[...] = planes[:, 0].transpose(0, 2, 1)
        np.copyto(signed, -self.gemm_weight, where=planes[:, 1].transpose(0, 2, 1))
        self.rhs[:, cols] = self.gemm_weight * sa1_rows
        # Column occupancy for the zero-cost test: each block column's count
        # of ones (exact in either dtype), each fault class's columns.
        self.block_ones = np.matmul(np.ones(rows, dtype=dtype), self.lhs)[:, :cols]
        self.fault_cols = planes.any(axis=2)

    def zero_cost(self, pair_ub: np.ndarray, pair_um: np.ndarray) -> np.ndarray:
        """Which pairs have identically zero ``sa0`` and ``sa1`` matrices.

        ``sa0`` is zero when no column holds both a one of the block and an
        SA0 cell; ``sa1`` when every column holding an SA1 cell is all ones
        in the block.  Either way no product is needed.
        """
        ones = self.block_ones[pair_ub]
        clash = (ones > 0) & self.fault_cols[pair_um, 0]
        clash |= (ones < self.rows) & self.fault_cols[pair_um, 1]
        return ~clash.any(axis=1)

    def map_product(self, lo: int, hi: int) -> np.ndarray:
        """The product of every block with maps ``lo:hi``.

        Pair ``(ub, lo + m)`` is entry ``m * len(blocks) + ub``: one matmul
        writes the stack map by map, with no transpose or gather.
        """
        num_blocks, rows, width = self.lhs.shape
        product = np.matmul(self.lhs.reshape(num_blocks * rows, width), self.rhs[lo:hi])
        return product.reshape(-1, rows, product.shape[-1])

    def pair_product(self, pair_ub: np.ndarray, pair_um: np.ndarray) -> np.ndarray:
        """The product of the listed pairs, from gathered operands."""
        return np.matmul(self.lhs[pair_ub], self.rhs[pair_um])

    def cost_stack(self, product: np.ndarray) -> np.ndarray:
        """The solver's stack from a product: the seed's row-cost values.

        int32 for an integral weight, float64 otherwise.  An exact product
        is the values already; outside the exact range its two counts are
        read apart and combined as the seed does, ``sa0 + w·sa1`` in
        float64.
        """
        if self.exact:
            return product.astype(
                np.int32 if self.weight.is_integer() else np.float64
            )
        sa1 = np.floor(product / self.gemm_weight)
        product -= self.gemm_weight * sa1
        return product.astype(np.float64) + self.weight * sa1.astype(np.float64)

    def sa1_mismatches(
        self, pair_ub: np.ndarray, pair_um: np.ndarray, assignments: np.ndarray
    ) -> np.ndarray:
        """Each pair's unweighted SA1 mismatch under its row assignment.

        ``Σ_r (n1[perm r] − B[r]·SA1[perm r])`` over the chosen rows only;
        the permutation covers every crossbar row, so the first term is the
        map's SA1 cell count.  The row dot products are counts over packed
        bits.
        """
        chosen = self.packed_sa1[pair_um[:, None], assignments]
        chosen &= self.packed_masks[pair_ub]
        hits = np.bitwise_count(chosen).sum(axis=(1, 2), dtype=np.int64)
        return (self.sa1_cells[pair_um] - hits).astype(np.float64)


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
        if not math.isfinite(sa1_weight) or sa1_weight < 0:
            raise ValueError(
                f"sa1_weight must be finite and non-negative, got {sa1_weight}"
            )
        if row_method not in BATCH_SOLVERS:
            raise ValueError(
                f"unknown row method {row_method!r}; available: "
                f"{sorted(BATCH_SOLVERS)}"
            )
        self.sa1_weight = float(sa1_weight)
        self.row_method = row_method
        self.stats = CostEngineStats()
        # Pair results grouped by fault map, in LRU order of the maps:
        # ``_cache[self._column_key(map_fp)].entries[block_fp]``.  A call
        # looks each fault map up once (one LRU touch per map, not per pair)
        # and then its blocks.
        self._cache: "OrderedDict[Tuple, _Column]" = OrderedDict()
        self._cached_pairs = 0
        # The previous call's stacks, whose fingerprints the next call reuses.
        self._previous: Optional[_Stacks] = None

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def _column_key(self, map_fp: str) -> Tuple:
        """Cache key of one fault map's results (with the solver settings)."""
        return (map_fp, self.sa1_weight, self.row_method)

    def _column(self, map_fp: str) -> Optional[_Column]:
        """The cached results against ``map_fp``, touched as most recent."""
        key = self._column_key(map_fp)
        column = self._cache.get(key)
        if column is not None:
            self._cache.move_to_end(key)
        return column

    def _cache_store(self, map_fp: str, block_fp: str, entry: _PairEntry) -> None:
        """Cache one solved pair under its fault map's column."""
        key = self._column_key(map_fp)
        column = self._cache.get(key)
        if column is None:
            column = self._cache[key] = _Column()
        if block_fp not in column.entries:
            self._cached_pairs += 1
        column.entries[block_fp] = entry

    def _evict(self) -> None:
        """Drop least recently used fault maps' results down to ``CACHE_SIZE``."""
        while self._cached_pairs > self.CACHE_SIZE:
            _, column = self._cache.popitem(last=False)
            self._cached_pairs -= len(column.entries)
            self.stats.cache_evictions += len(column.entries)

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
        stacks = self._previous = _stack_and_dedupe(blocks, fault_maps, self._previous)
        faulty_cols, block_fps = stacks.faulty, stacks.block_fps
        block_uid, map_uid = stacks.block_uid, stacks.map_uid
        num_ub, num_um = len(block_fps), len(stacks.map_fps)
        self.stats.fault_free_pairs += num_blocks * (num_maps - faulty_cols.size)
        self.stats.duplicate_pairs += num_blocks * faulty_cols.size - num_ub * num_um

        # -- resolve unique pairs through the cache ----------------------- #
        # One lookup per unique fault map: a map whose column last served
        # these same blocks hands over its grid row whole; any other map
        # looks its blocks up in one pass.  ``found[um][ub]`` is the entry of
        # unique block ``ub`` against unique map ``um``, ``None`` until
        # solved.  The counters move once per call.
        found: List[List[Optional[_PairEntry]]] = []
        columns: List[Optional[_Column]] = []
        to_solve: List[Tuple[int, int]] = []
        for um, map_fp in enumerate(stacks.map_fps):
            column = self._column(map_fp)
            columns.append(column)
            if column is None:
                entries = [None] * num_ub
            elif column.blocks == block_fps:
                found.append(column.row)
                continue
            else:
                entries = list(map(column.entries.get, block_fps))
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
        for um, column in enumerate(columns):
            if column is None:
                column = columns[um] = self._cache[self._column_key(stacks.map_fps[um])]
            if column.row is not found[um]:
                column.remember(block_fps, found[um])
        if to_solve:
            self._evict()

        # -- scatter the unique rows to the full (B, M) grids ------------- #
        if faulty_cols.size:
            grid = np.ix_(map_uid[faulty_cols], block_uid)
            for out, field in ((costs, "costs"), (sa1_mismatches, "sa1")):
                unique = np.array([getattr(column, field) for column in columns])
                out[:, faulty_cols] = unique[grid].T

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
        stacks = self._previous = _stack_and_dedupe(blocks, fault_maps, self._previous)
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
            column = self._column(stacks.map_fps[um])
            cached = {} if column is None else column.entries
            for ub in ubs:
                entry = cached.get(stacks.block_fps[ub])
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
        pair_ub = np.array([compact_ub[ub] for ub, _ in to_solve], dtype=np.int64)
        pair_um = np.array([compact_um[um] for _, um in to_solve], dtype=np.int64)
        operands = _PairOperands(
            stacks.masks[stacks.block_rep[solve_ubs]],
            stacks.planes[stacks.map_rep[solve_ums]],
            self.sa1_weight,
        )
        # Zero-cost pairs are known before any product.  Such a pair's cost
        # matrix is the all-zero matrix, so one solve of it gives every
        # zero-cost pair its solver-exact permutation.
        zero = operands.zero_cost(pair_ub, pair_um)
        num_zero = int(np.count_nonzero(zero))
        self.stats.zero_cost_pairs += num_zero
        self.stats.solver_pairs += len(to_solve) - num_zero
        rows, cols = stacks.masks.shape[1:]
        zero_entry = None
        if num_zero:
            assignments, _ = self._solve_stack(np.zeros((1, rows, rows)))
            zero_entry = _PairEntry(0.0, 0.0, assignments[0])

        solved: Dict[Tuple[int, int], _PairEntry] = {}

        def enter(batch: np.ndarray, live: np.ndarray, product: np.ndarray) -> None:
            """Enter a chunk's zero-cost pairs, then solve and enter its live ones."""
            for k in batch[zero[batch]].tolist():
                solved[to_solve[k]] = zero_entry
            if not live.size:
                return
            assignments, totals = self._solve_stack(operands.cost_stack(product))
            sa1 = operands.sa1_mismatches(pair_ub[live], pair_um[live], assignments)
            for k, cost, mismatch, permutation in zip(
                live.tolist(), totals.tolist(), sa1.tolist(), assignments
            ):
                solved[to_solve[k]] = _PairEntry(cost, mismatch, permutation)

        num_ub = len(solve_ubs)
        if len(to_solve) >= 0.5 * num_ub * len(solve_ums):
            # Dense pending set (the cold-start shape): one product of every
            # pending block with a chunk of pending maps, pair-major in map
            # order, so a cold plan's stack is the product itself.
            map_chunk = max(1, self.MAX_CHUNK_CELLS // max(num_ub * rows * rows * 6, 1))
            order = np.argsort(pair_um, kind="stable")
            bounds = np.searchsorted(
                pair_um[order], np.arange(0, len(solve_ums) + map_chunk, map_chunk)
            )
            for lo, start, stop in zip(
                range(0, len(solve_ums), map_chunk), bounds, bounds[1:]
            ):
                batch = order[start:stop]
                live = batch[~zero[batch]]
                product = None
                if live.size:
                    product = operands.map_product(lo, lo + map_chunk)
                    at = (pair_um[live] - lo) * num_ub + pair_ub[live]
                    if at.size != len(product) or (at != np.arange(at.size)).any():
                        product = product[at]
                enter(batch, live, product)
        else:
            # Sparse pending set (a refresh's pairs, or one new block against
            # a warm pool plus one refreshed map): one product per pending
            # pair from gathered operands, so the cost stays proportional to
            # the new work.
            pair_chunk = max(1, self.MAX_CHUNK_CELLS // max(rows * cols * 6, 1))
            for start in range(0, len(to_solve), pair_chunk):
                batch = np.arange(start, min(start + pair_chunk, len(to_solve)))
                live = batch[~zero[batch]]
                enter(batch, live, operands.pair_product(pair_ub[live], pair_um[live]))
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
