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
:mod:`repro.core.batch_solvers`, per the row method), materialises only the
≤ ``B`` selected permutations, and caches every pair result by content
fingerprint so per-epoch refreshes on unchanged BIST maps are near-free.
A full re-plan after a fault delta is just another ``map_blocks`` call on
the same mapper: the cache serves every pair whose block and fault map are
unchanged, and only the pairs against changed maps are solved again.

The seed per-pair loop — ``B·M`` independent calls of
:func:`block_crossbar_cost`, every permutation materialised — lives in
``tests/reference/mapping.py``.  ``tests/test_core_cost_engine.py`` proves
both return identical :class:`BatchMapping` outputs;
``benchmarks/test_bench_mapping_throughput.py`` (greedy) and
``benchmarks/test_bench_exact_matching.py`` (exact methods) time the engine
against it.  The overall layering is documented in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_engine import MappingCostEngine, block_row_cost_matrix
from repro.hardware.faults import FaultMap
from repro.matching.bipartite import solve_assignment
from repro.matching.hungarian import hungarian_assignment

__all__ = [
    "BatchMapping",
    "BlockMapping",
    "FaultAwareMapper",
    "block_crossbar_cost",
    "block_row_cost_matrix",  # re-exported single source: core.cost_engine
    "permutation_mismatch_cost",
    "sequential_mapping",
]


def block_crossbar_cost(
    block: np.ndarray,
    fault_map: FaultMap,
    sa1_weight: float = 1.0,
    method: str = "greedy",
) -> Tuple[float, np.ndarray, float]:
    """Best achievable (weighted) mismatch of a block on a crossbar.

    Returns ``(total_cost, row_permutation, sa1_mismatch)`` where
    ``row_permutation[i]`` is the crossbar row that block row ``i`` should be
    written to, and ``sa1_mismatch`` is the (unweighted) number of spurious
    edges the chosen permutation still incurs.
    """
    if fault_map.is_fault_free():
        n = block.shape[0]
        return 0.0, np.arange(n, dtype=np.int64), 0.0
    total, _, sa1_cost = block_row_cost_matrix(block, fault_map, sa1_weight)
    permutation, cost = solve_assignment(total, method=method)
    sa1_mismatch = float(sa1_cost[np.arange(len(permutation)), permutation].sum())
    return float(cost), permutation.astype(np.int64), sa1_mismatch


def permutation_mismatch_cost(
    block: np.ndarray,
    fault_map: FaultMap,
    permutation: Optional[np.ndarray] = None,
    sa1_weight: float = 1.0,
) -> Tuple[float, float]:
    """Weighted mismatch of storing ``block`` under a *given* row permutation.

    ``permutation[i]`` is the crossbar row block row ``i`` is written to
    (identity when ``None``).  Returns ``(total_cost, sa1_mismatch)`` — the
    cost a mapping that did **not** optimise the permutation actually incurs,
    which is what the fault-unaware baselines should report instead of NaN.
    """
    if fault_map.is_fault_free():
        return 0.0, 0.0
    block = np.asarray(block, dtype=np.float64)
    if block.shape != fault_map.shape:
        raise ValueError(
            f"block shape {block.shape} does not match fault map {fault_map.shape}"
        )
    ones = block > 0
    if permutation is None:
        sa0_rows = fault_map.sa0
        sa1_rows = fault_map.sa1
    else:
        permutation = np.asarray(permutation, dtype=np.int64)
        sa0_rows = fault_map.sa0[permutation]
        sa1_rows = fault_map.sa1[permutation]
    sa0_mismatch = float(np.count_nonzero(ones & sa0_rows))
    sa1_mismatch = float(np.count_nonzero(~ones & sa1_rows))
    return sa0_mismatch + sa1_weight * sa1_mismatch, sa1_mismatch


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
    cost of its placement (0.0 on fault-free crossbars).  Without them the
    cost is 0.0 — historically it was ``NaN``, which silently poisoned
    :attr:`BatchMapping.total_cost` for every baseline run.
    """
    if num_crossbars <= 0:
        raise ValueError("num_crossbars must be positive")
    if (blocks is None) != (fault_maps is None):
        raise ValueError(
            "blocks and fault_maps must be supplied together (a half-specified "
            "call would silently report cost 0.0 for a faulty placement)"
        )
    if fault_maps is not None and len(fault_maps) != num_crossbars:
        raise ValueError(
            f"fault_maps length {len(fault_maps)} does not match "
            f"num_crossbars {num_crossbars}"
        )
    if blocks is not None and len(blocks) != num_blocks:
        raise ValueError(
            f"blocks length {len(blocks)} does not match num_blocks {num_blocks}"
        )
    identity = np.arange(crossbar_rows, dtype=np.int64)
    mappings = []
    for i in range(num_blocks):
        crossbar = i % num_crossbars
        cost, sa1 = 0.0, 0.0
        if blocks is not None and fault_maps is not None:
            cost, sa1 = permutation_mismatch_cost(
                blocks[i], fault_maps[crossbar], sa1_weight=sa1_weight
            )
        mappings.append(
            BlockMapping(
                block_index=i,
                crossbar_index=crossbar,
                row_permutation=identity.copy(),
                cost=cost,
                sa1_mismatch=sa1,
            )
        )
    return BatchMapping(blocks=mappings)


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
        ``'greedy'`` for speed).
    assignment_method:
        Solver for the outer block → crossbar assignment (default exact
        Hungarian; the problem is small).
    prune_crossbars:
        Enable the crossbar-pruning heuristic (Algorithm 1, line 12).
    relax_sparsest_block:
        Enable the sparsest-block relaxation (Algorithm 1, line 14).
    """

    def __init__(
        self,
        sa1_weight: float = 4.0,
        row_method: str = "greedy",
        assignment_method: str = "hungarian",
        prune_crossbars: bool = True,
        relax_sparsest_block: bool = True,
    ) -> None:
        if sa1_weight < 1.0:
            raise ValueError(
                f"sa1_weight should be >= 1 (SA1 faults are at least as bad as "
                f"SA0), got {sa1_weight}"
            )
        self.sa1_weight = float(sa1_weight)
        self.row_method = row_method
        self.assignment_method = assignment_method
        self.prune_crossbars = bool(prune_crossbars)
        self.relax_sparsest_block = bool(relax_sparsest_block)
        self.cost_engine = MappingCostEngine(
            sa1_weight=self.sa1_weight, row_method=row_method
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _block_densities(blocks: Sequence[np.ndarray]) -> np.ndarray:
        densities = []
        for block in blocks:
            block = np.asarray(block)
            densities.append(
                np.count_nonzero(block > 0) / block.size if block.size else 0.0
            )
        return np.array(densities)

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
        costs, sa1_mismatches, permutation_for = self.cost_engine.plan_pairwise(
            blocks, fault_maps
        )
        densities = self._block_densities(blocks)
        block_cells = float(np.asarray(blocks[0]).size)

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
        if self.assignment_method == "hungarian":
            assignment, _ = hungarian_assignment(sub_cost)
        else:
            assignment, _ = solve_assignment(sub_cost, method=self.assignment_method)

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
        execution on the host, so it adds no pipeline time.  Refreshes
        against an *unchanged* fault map are cost-engine cache hits and do no
        tensor or solver work at all.
        """
        updated: List[BlockMapping] = []
        for block_mapping in mapping.blocks:
            block = blocks[block_mapping.block_index]
            fmap = fault_maps_by_id[block_mapping.crossbar_index]
            cost, perm, sa1 = self.cost_engine.block_crossbar_cost(block, fmap)
            updated.append(
                BlockMapping(
                    block_index=block_mapping.block_index,
                    crossbar_index=block_mapping.crossbar_index,
                    row_permutation=perm,
                    cost=cost,
                    sa1_mismatch=sa1,
                )
            )
        return BatchMapping(
            blocks=updated,
            pruned_crossbars=list(mapping.pruned_crossbars),
            relaxed_blocks=list(mapping.relaxed_blocks),
        )
