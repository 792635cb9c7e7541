"""Fault-aware mapping of the adjacency matrix onto crossbars (Algorithm 1).

The subgraph adjacency matrix of a mini-batch is decomposed into
crossbar-sized binary blocks.  For every (block, crossbar) pair the minimum
number of *mismatches* achievable by permuting the block's rows is computed —
a mismatch being a stored ``1`` landing on an SA0 cell (edge deletion) or a
stored ``0`` landing on an SA1 cell (spurious edge).  SA1 mismatches are
weighted more heavily because Section V-B shows SA1 faults hurt accuracy far
more than SA0 faults.  The per-pair problem is a balanced assignment between
block rows and crossbar rows, solved with b-Suitor (as in the paper), exact
Hungarian, or a fast greedy matcher.  A second, outer assignment then places
blocks onto crossbars so the total weighted mismatch count is minimal.

Two refinements from the paper are implemented:

* **Crossbar pruning** (Algorithm 1, line 12) — a crossbar whose best-case
  SA1 non-overlap still exceeds the edge density of the sparsest block cannot
  be made safe by any permutation, so it is removed from the candidate set
  when enough crossbars remain.
* **Sparsest-block relaxation** (line 14) — when the number of blocks equals
  the number of candidate crossbars, the sparsest block is taken out of the
  optimisation (it is the least sensitive to faults) and assigned to the
  cheapest leftover crossbar afterwards, giving the denser blocks more
  freedom.

Performance model
-----------------
The mapper runs once per mini-batch per epoch, so its cost dominates the
pre-processing phase.  Every pair cost goes through
:class:`~repro.core.cost_engine.MappingCostEngine`, which batches the cost
tensors, dedupes identical blocks/fault maps, skips fault-free and
provably-zero pairs, solves the remaining inner assignments in one vectorised
stack solve (the two-phase batch greedy or a lockstep exact solver from
:mod:`repro.core.batch_solvers`, per the row method), and caches every pair
result by content fingerprint.  The post-deployment refresh
(:meth:`FaultAwareMapper.update_row_permutations`) resolves a plan's pairs in
one engine call through the same stacks, cache and batched solve, so pairs
against unchanged BIST maps are cache hits.  A full re-plan after a fault
delta is just another ``map_blocks`` call on the same mapper: the cache
serves every pair whose block and fault map are unchanged, only the pairs
against changed maps are solved again, and the outer assignment replays
the searches of the mapper's last solve that the changed crossbar columns
cannot have touched (:class:`~repro.matching.hungarian.HungarianTrace`).

The seed per-pair loop — ``B·M`` independent single-pair solves, every
permutation materialised — lives in ``tests/reference/mapping.py``.
``tests/test_core_cost_engine.py`` proves both return identical
:class:`BatchMapping` outputs;
``benchmarks/test_bench_mapping_throughput.py`` (greedy) and
``benchmarks/test_bench_exact_matching.py`` (exact methods) time the engine
against it.

The fault-unaware plan (:func:`sequential_plans`, behind
:func:`sequential_mapping` and the fault-unaware and clipping strategies)
solves nothing: its identity-placement cost is a count over each block's
stored edges against its crossbar's stacked fault planes, one pass per
batch with no dense block.  Its seed, one dense mismatch count per block,
is ``tests/reference/mapping.py``'s ``seed_sequential_mapping``
(``tests/test_core_sequential_plan.py``).  The
overall layering is documented in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_engine import MappingCostEngine
from repro.hardware.faults import FaultMap
from repro.matching.hungarian import HungarianTrace, hungarian_assignment

__all__ = [
    "BatchMapping",
    "BlockMapping",
    "FaultAwareMapper",
    "sequential_mapping",
    "sequential_plans",
]


# --------------------------------------------------------------------------- #
# Mapping data structures
# --------------------------------------------------------------------------- #
@dataclass
class BlockMapping:
    """Placement of one adjacency block onto one crossbar."""

    block_index: int
    crossbar_index: int
    row_permutation: np.ndarray
    cost: float
    sa1_mismatch: float = 0.0


@dataclass
class BatchMapping:
    """Placement of every block of one mini-batch adjacency matrix."""

    blocks: List[BlockMapping]
    pruned_crossbars: List[int] = field(default_factory=list)
    relaxed_blocks: List[int] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return float(sum(b.cost for b in self.blocks))

    @property
    def total_sa1_mismatch(self) -> float:
        return float(sum(b.sa1_mismatch for b in self.blocks))

    def crossbar_for_block(self, block_index: int) -> BlockMapping:
        for mapping in self.blocks:
            if mapping.block_index == block_index:
                return mapping
        raise KeyError(f"no mapping recorded for block {block_index}")

    def __len__(self) -> int:
        return len(self.blocks)


class _FaultPlanes(NamedTuple):
    """The fault maps of a crossbar list, stacked once.

    ``sa0``/``sa1`` hold one flattened ``rows * cols`` plane per crossbar;
    ``sa1_counts`` is each crossbar's number of SA1 cells.
    """

    sa0: np.ndarray
    sa1: np.ndarray
    sa1_counts: np.ndarray
    shape: Tuple[int, int]


def _fault_planes(fault_maps: Sequence[FaultMap]) -> _FaultPlanes:
    """Stack ``fault_maps``, which must share one shape."""
    shapes = {fault_map.shape for fault_map in fault_maps}
    if len(shapes) != 1:
        raise ValueError(f"fault maps must share one shape, got {sorted(shapes)}")
    sa0 = np.stack([fault_map.sa0.ravel() for fault_map in fault_maps])
    sa1 = np.stack([fault_map.sa1.ravel() for fault_map in fault_maps])
    return _FaultPlanes(sa0, sa1, np.count_nonzero(sa1, axis=1), shapes.pop())


def _placement_costs(
    planes: _FaultPlanes,
    at: np.ndarray,
    bounds: np.ndarray,
    crossbar: np.ndarray,
    sa1_weight: float,
) -> Tuple[List[float], List[float]]:
    """``(costs, sa1_mismatches)`` of placements from their edges' cells.

    Placement ``k`` stores its edges at positions ``at[bounds[k]:bounds[k +
    1]]`` of the flattened planes, on crossbar ``crossbar[k]``: its cost is
    the edges on SA0 cells plus ``sa1_weight`` times the crossbar's SA1
    cells that hold no edge.
    """
    # Per-placement counts of the edges on faulty cells: differences of a
    # running count at the placement bounds.
    sa0_hits = np.diff(np.r_[0, np.cumsum(planes.sa0.ravel()[at])][bounds])
    sa1_hits = np.diff(np.r_[0, np.cumsum(planes.sa1.ravel()[at])][bounds])
    sa1_mismatch = (planes.sa1_counts[crossbar] - sa1_hits).astype(np.float64)
    costs = sa0_hits.astype(np.float64) + sa1_weight * sa1_mismatch
    return costs.tolist(), sa1_mismatch.tolist()


def _stored_cells(
    blocks: Sequence[np.ndarray], shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cells, bounds)``: block ``k`` stores ones at ``cells[bounds[k]:bounds[k + 1]]``.

    Cells are flat ``row * cols + col`` indices of the ``> 0`` entries.  A
    lazy block view hands over the layout it keeps (its ``cell_layout()``,
    see :class:`~repro.pipeline.mapping_engine.AdjacencyBlocks`); dense
    blocks are read once each.
    """
    cell_layout = getattr(blocks, "cell_layout", None)
    if cell_layout is not None:
        if (blocks.rows, blocks.cols) != shape:
            raise ValueError(
                f"block shape {(blocks.rows, blocks.cols)} does not match fault map {shape}"
            )
        return cell_layout()
    cells = []
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.shape != shape:
            raise ValueError(
                f"block shape {block.shape} does not match fault map {shape}"
            )
        cells.append(np.flatnonzero(block > 0))
    bounds = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum([len(block_cells) for block_cells in cells], out=bounds[1:])
    return np.concatenate(cells) if cells else np.zeros(0, dtype=np.int64), bounds


def _round_robin(
    costs: List[float], sa1: List[float], ids: Sequence[int], crossbar_rows: int
) -> BatchMapping:
    """Block ``i`` on crossbar ``ids[i % len(ids)]`` with identity rows.

    Each block gets its own identity permutation: one row of a tiled table.
    """
    identities = np.tile(np.arange(crossbar_rows, dtype=np.int64), (len(costs), 1))
    return BatchMapping(
        blocks=[
            BlockMapping(i, ids[i % len(ids)], identity, cost, sa1_mismatch)
            for i, (identity, cost, sa1_mismatch) in enumerate(
                zip(identities, costs, sa1)
            )
        ]
    )


def sequential_plans(
    blocks_per_batch: Sequence[Sequence[np.ndarray]],
    fault_maps: Sequence[FaultMap],
    crossbar_ids: Sequence[int],
    crossbar_rows: int,
    sa1_weight: float = 1.0,
) -> List[BatchMapping]:
    """The fault-unaware plan of every batch: block ``i`` → ``crossbar_ids[i % m]``.

    Each :class:`BlockMapping` carries the identity-permutation mismatch of
    its placement, counted over the block's stored edges: the edges on SA0
    cells of its crossbar, plus ``sa1_weight`` times the crossbar's SA1
    cells that hold no edge.  The fault maps are stacked once for all
    batches and each batch costs one pass over its edges, with no dense
    block built; lazy :class:`~repro.pipeline.mapping_engine.AdjacencyBlocks`
    views are read through their cell layout.  The per-block loop of dense
    mismatch counts it replaces lives in ``tests/reference/mapping.py``;
    the plans are bit-identical to it.
    """
    ids = list(crossbar_ids)
    if not ids:
        raise ValueError("num_crossbars must be positive")
    if len(fault_maps) != len(ids):
        raise ValueError(
            f"fault_maps length {len(fault_maps)} does not match "
            f"num_crossbars {len(ids)}"
        )
    planes = _fault_planes(fault_maps)
    plans = []
    for blocks in blocks_per_batch:
        cells, bounds = _stored_cells(blocks, planes.shape)
        crossbar = np.arange(bounds.size - 1) % len(ids)
        at = np.repeat(crossbar * planes.sa0.shape[1], np.diff(bounds)) + cells
        costs, sa1_mismatch = _placement_costs(planes, at, bounds, crossbar, sa1_weight)
        plans.append(_round_robin(costs, sa1_mismatch, ids, crossbar_rows))
    return plans


def sequential_mapping(
    num_blocks: int,
    crossbar_rows: int,
    num_crossbars: int,
    blocks: Optional[Sequence[np.ndarray]] = None,
    fault_maps: Optional[Sequence[FaultMap]] = None,
    sa1_weight: float = 1.0,
) -> BatchMapping:
    """The fault-unaware default: block ``i`` → crossbar ``i % m``, identity rows.

    When ``blocks`` and ``fault_maps`` are provided, each
    :class:`BlockMapping` carries the *true* identity-permutation mismatch
    cost of its placement (0.0 on fault-free crossbars), as
    :func:`sequential_plans` counts it.  Without them the cost is 0.0 —
    historically it was ``NaN``, which silently poisoned
    :attr:`BatchMapping.total_cost` for every baseline run.
    """
    if num_crossbars <= 0:
        raise ValueError("num_crossbars must be positive")
    if (blocks is None) != (fault_maps is None):
        raise ValueError(
            "blocks and fault_maps must be supplied together (a half-specified "
            "call would silently report cost 0.0 for a faulty placement)"
        )
    if blocks is not None and len(blocks) != num_blocks:
        raise ValueError(
            f"blocks length {len(blocks)} does not match num_blocks {num_blocks}"
        )
    if blocks is None:
        zeros = [0.0] * num_blocks
        return _round_robin(zeros, zeros, range(num_crossbars), crossbar_rows)
    return sequential_plans(
        [blocks], fault_maps, range(num_crossbars), crossbar_rows, sa1_weight
    )[0]


# --------------------------------------------------------------------------- #
# Algorithm 1
# --------------------------------------------------------------------------- #
class FaultAwareMapper:
    """Implements the fault-aware adjacency mapping of the FARe framework.

    Parameters
    ----------
    sa1_weight:
        Multiplier applied to SA1 mismatches in the cost function (SA1 faults
        are more damaging; Section V-B).
    row_method:
        Assignment solver used for the inner row-to-row matching
        (``'bsuitor'`` as in the paper, ``'hungarian'`` for exact,
        ``'greedy'`` for speed).  The outer block → crossbar assignment is
        always solved exactly (:func:`hungarian_assignment`, Algorithm 1).
    prune_crossbars:
        Enable the crossbar-pruning heuristic (Algorithm 1, line 12).
    relax_sparsest_block:
        Enable the sparsest-block relaxation (Algorithm 1, line 14).
    """

    def __init__(
        self,
        sa1_weight: float = 4.0,
        row_method: str = "greedy",
        prune_crossbars: bool = True,
        relax_sparsest_block: bool = True,
    ) -> None:
        if not math.isfinite(sa1_weight):
            raise ValueError(f"sa1_weight must be finite, got {sa1_weight}")
        if sa1_weight < 1.0:
            raise ValueError(
                f"sa1_weight should be >= 1 (SA1 faults are at least as bad as "
                f"SA0), got {sa1_weight}"
            )
        self.sa1_weight = float(sa1_weight)
        self.row_method = row_method
        self.prune_crossbars = bool(prune_crossbars)
        self.relax_sparsest_block = bool(relax_sparsest_block)
        self.cost_engine = MappingCostEngine(
            sa1_weight=self.sa1_weight, row_method=row_method
        )
        # The last outer solve: a re-plan whose cost grid changed in a few
        # crossbar columns replays the searches those columns cannot touch.
        self._outer_trace = HungarianTrace()

    # ------------------------------------------------------------------ #
    def map_blocks(
        self,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Optional[Sequence[int]] = None,
    ) -> BatchMapping:
        """Run Algorithm 1 for one batch of adjacency blocks.

        Parameters
        ----------
        blocks:
            Dense binary blocks (all of crossbar shape).
        fault_maps:
            Fault maps of the candidate crossbars (as reported by the BIST).
        crossbar_ids:
            Physical ids of the candidate crossbars; defaults to
            ``0..len(fault_maps)-1``.

        Calling this again after a fault-map delta re-plans warm: pairs with
        an unchanged block and fault map are cost-engine cache hits, so the
        plan is bit-identical to a fresh mapper's at the cost of the changed
        pairs only.
        """
        num_blocks = len(blocks)
        num_crossbars = len(fault_maps)
        if num_blocks == 0:
            return BatchMapping(blocks=[])
        if num_crossbars == 0:
            raise ValueError("need at least one crossbar")
        ids = list(crossbar_ids) if crossbar_ids is not None else list(range(num_crossbars))
        if len(ids) != num_crossbars:
            raise ValueError("crossbar_ids length must match fault_maps length")

        # More blocks than crossbars: the crossbars are time-multiplexed —
        # map one chunk of (at most) m blocks at a time, each chunk with an
        # injective assignment, and concatenate the results.
        if num_blocks <= num_crossbars:
            return self._map_chunk(blocks, fault_maps, ids)
        merged = BatchMapping(blocks=[])
        for start in range(0, num_blocks, num_crossbars):
            chunk = blocks[start : start + num_crossbars]
            chunk_mapping = self._map_chunk(chunk, fault_maps, ids)
            for block_mapping in chunk_mapping.blocks:
                block_mapping.block_index += start
            merged.blocks.extend(chunk_mapping.blocks)
            merged.pruned_crossbars.extend(chunk_mapping.pruned_crossbars)
            merged.relaxed_blocks.extend(
                index + start for index in chunk_mapping.relaxed_blocks
            )
        merged.blocks.sort(key=lambda m: m.block_index)
        return merged

    def _map_chunk(
        self,
        blocks: Sequence[np.ndarray],
        fault_maps: Sequence[FaultMap],
        ids: List[int],
    ) -> BatchMapping:
        """Algorithm 1 core for one chunk of at most ``len(fault_maps)`` blocks."""
        num_blocks = len(blocks)
        num_crossbars = len(fault_maps)
        # The plan reads each block's ``> 0`` pattern only: one stack of them
        # serves the cost engine and the densities.
        ones = np.array(blocks) > 0
        costs, sa1_mismatches, permutation_for = self.cost_engine.plan_pairwise(
            ones, fault_maps
        )
        block_cells = float(ones[0].size)
        densities = np.count_nonzero(ones.reshape(num_blocks, -1), axis=1) / max(
            block_cells, 1.0
        )

        # --- crossbar pruning (line 12) --------------------------------
        candidate_crossbars = list(range(num_crossbars))
        pruned: List[int] = []
        if self.prune_crossbars and num_crossbars > num_blocks:
            sparsest_density = float(densities.min())
            # Best-case SA1 non-overlap of each crossbar, as a fraction of
            # the block size (to be commensurable with edge density).
            min_sa1_fraction = sa1_mismatches.min(axis=0) / max(block_cells, 1.0)
            for j in sorted(
                range(num_crossbars), key=lambda c: -min_sa1_fraction[c]
            ):
                if len(candidate_crossbars) <= num_blocks:
                    break
                if min_sa1_fraction[j] > sparsest_density and min_sa1_fraction[j] > 0:
                    candidate_crossbars.remove(j)
                    pruned.append(ids[j])

        # --- sparsest-block relaxation (line 14) ------------------------
        active_blocks = list(range(num_blocks))
        relaxed: List[int] = []
        if (
            self.relax_sparsest_block
            and len(candidate_crossbars) == num_blocks
            and num_blocks > 1
        ):
            # Only relax when the best mapping of the sparsest block still
            # has SA1 overlap everywhere (the worst case in the paper).
            sparsest = int(np.argmin(densities))
            if sa1_mismatches[sparsest, candidate_crossbars].min() > 0:
                active_blocks.remove(sparsest)
                relaxed.append(sparsest)

        # --- outer assignment (line 18) ---------------------------------
        sub_cost = costs[np.ix_(active_blocks, candidate_crossbars)]
        assignment, _ = hungarian_assignment(sub_cost, trace=self._outer_trace)

        block_mappings: List[BlockMapping] = []
        used_crossbars = set()
        for local_index, block_index in enumerate(active_blocks):
            crossbar_local = candidate_crossbars[int(assignment[local_index])]
            used_crossbars.add(crossbar_local)
            block_mappings.append(
                BlockMapping(
                    block_index=block_index,
                    crossbar_index=ids[crossbar_local],
                    row_permutation=permutation_for(block_index, crossbar_local),
                    cost=float(costs[block_index, crossbar_local]),
                    sa1_mismatch=float(sa1_mismatches[block_index, crossbar_local]),
                )
            )

        # Relaxed blocks take the cheapest crossbar not used by the others
        # (pruned crossbars become eligible again here — every block must be
        # stored somewhere).
        for block_index in relaxed:
            remaining = [j for j in range(num_crossbars) if j not in used_crossbars]
            best = min(remaining, key=lambda j: costs[block_index, j])
            used_crossbars.add(best)
            block_mappings.append(
                BlockMapping(
                    block_index=block_index,
                    crossbar_index=ids[best],
                    row_permutation=permutation_for(block_index, best),
                    cost=float(costs[block_index, best]),
                    sa1_mismatch=float(sa1_mismatches[block_index, best]),
                )
            )

        block_mappings.sort(key=lambda m: m.block_index)
        return BatchMapping(
            blocks=block_mappings, pruned_crossbars=pruned, relaxed_blocks=relaxed
        )

    # ------------------------------------------------------------------ #
    def update_row_permutations(
        self,
        mapping: BatchMapping,
        blocks: Sequence[np.ndarray],
        fault_maps_by_id: dict,
    ) -> BatchMapping:
        """Recompute row permutations for an existing block → crossbar mapping.

        This is the post-deployment refresh (Section IV-A): the block to
        crossbar assignment ``Π`` is kept — the few faults appearing after an
        epoch do not justify recomputing it — and only the within-crossbar row
        permutations are recomputed against the latest BIST fault maps.  The
        matching is linear-time work per block and is overlapped with ReRAM
        execution on the host, so it adds no pipeline time.

        The plan's (block, crossbar) pairs are resolved in one cost-engine
        call (:meth:`~repro.core.cost_engine.MappingCostEngine.pair_results`).
        A pair against an unchanged fault map is a cache hit and costs no
        solver work, though its block and map are still stacked and
        fingerprinted.
        """
        results = self.cost_engine.pair_results(
            [blocks[m.block_index] for m in mapping.blocks],
            [fault_maps_by_id[m.crossbar_index] for m in mapping.blocks],
        )
        updated = [
            BlockMapping(
                block_index=m.block_index,
                crossbar_index=m.crossbar_index,
                row_permutation=permutation,
                cost=cost,
                sa1_mismatch=sa1,
            )
            for m, (cost, permutation, sa1) in zip(mapping.blocks, results)
        ]
        return BatchMapping(
            blocks=updated,
            pruned_crossbars=list(mapping.pruned_crossbars),
            relaxed_blocks=list(mapping.relaxed_blocks),
        )
