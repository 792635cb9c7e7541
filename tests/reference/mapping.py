"""Seed mapping loops: references for the cost engine and the sequential plan.

* :func:`block_row_cost_matrix` / :func:`block_crossbar_cost` — one
  (block, crossbar) pair's row-cost matrices and its best row permutation,
  solved on its own;
* :class:`SeedPairLoop` / :class:`SeedLoopMapper` — the per-pair loop behind
  Algorithm 1 (for :class:`~repro.core.cost_engine.MappingCostEngine`);
* :func:`permutation_mismatch_cost` — the mismatch of one dense block under a
  given row permutation, counted cell by cell;
* :func:`seed_sequential_mapping` — the fault-unaware plan with one
  :func:`permutation_mismatch_cost` call per dense block
  (for the edge-coordinate count of
  :func:`~repro.core.mapping.sequential_plans`);
* :class:`SeedNeuronReordering` — NR's plan and refresh with one dense
  group-cost matrix and one scalar greedy solve per block (for the batched
  group reordering of
  :class:`~repro.core.strategies.NeuronReorderingStrategy`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_engine import CostEngineStats
from repro.core.mapping import BatchMapping, BlockMapping, FaultAwareMapper
from repro.core.strategies import NeuronReorderingStrategy
from repro.hardware.faults import FaultMap
from repro.matching.bipartite import solve_assignment
from repro.matching.greedy import greedy_assignment


def permutation_mismatch_cost(
    block: np.ndarray,
    fault_map: FaultMap,
    permutation: Optional[np.ndarray] = None,
    sa1_weight: float = 1.0,
) -> Tuple[float, float]:
    """Weighted mismatch of storing ``block`` under a *given* row permutation.

    ``permutation[i]`` is the crossbar row block row ``i`` is written to
    (identity when ``None``).  Returns ``(total_cost, sa1_mismatch)`` — the
    cost a mapping that did **not** optimise the permutation actually incurs
    (NR's row-group reordering).
    :func:`~repro.core.mapping.sequential_plans` counts the same quantity
    for the identity over edge coordinates, and NR's batched group
    reordering for its group permutations.
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

    The cost engine computes the same integers for whole stacks of pairs.
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
    edges the chosen permutation still incurs.  The production path is
    :meth:`~repro.core.cost_engine.MappingCostEngine.pair_results`.
    """
    if fault_map.is_fault_free():
        n = block.shape[0]
        return 0.0, np.arange(n, dtype=np.int64), 0.0
    total, _, sa1_cost = block_row_cost_matrix(block, fault_map, sa1_weight)
    permutation, cost = solve_assignment(total, method=method)
    sa1_mismatch = float(sa1_cost[np.arange(len(permutation)), permutation].sum())
    return float(cost), permutation.astype(np.int64), sa1_mismatch


def seed_sequential_mapping(
    num_blocks: int,
    crossbar_rows: int,
    num_crossbars: int,
    blocks: Optional[Sequence[np.ndarray]] = None,
    fault_maps: Optional[Sequence[FaultMap]] = None,
    sa1_weight: float = 1.0,
) -> BatchMapping:
    """Block ``i`` → crossbar ``i % m``, identity rows, costed block by block.

    Every block is read dense and compared cell by cell with its crossbar's
    fault map (``permutation_mismatch_cost`` with the identity permutation;
    a fault-free map costs 0.0 without a look at the block).
    """
    if num_crossbars <= 0:
        raise ValueError("num_crossbars must be positive")
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


class SeedNeuronReordering(NeuronReorderingStrategy):
    """NR with the per-block loop: each block read dense, costed and solved alone."""

    def plan_adjacency(
        self,
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps: Sequence[FaultMap],
        crossbar_ids: Sequence[int],
        crossbar_rows: int,
    ) -> List[BatchMapping]:
        plans: List[BatchMapping] = []
        for blocks in blocks_per_batch:
            plan = seed_sequential_mapping(len(blocks), crossbar_rows, len(crossbar_ids))
            plan.blocks = [
                self._reordered_mapping(
                    blocks,
                    m.block_index,
                    crossbar_ids[m.crossbar_index],
                    fault_maps[m.crossbar_index],
                )
                for m in plan.blocks
            ]
            plans.append(plan)
        return plans

    def refresh_adjacency(
        self,
        plans: List[BatchMapping],
        blocks_per_batch: Sequence[Sequence[np.ndarray]],
        fault_maps_by_id,
    ) -> List[BatchMapping]:
        return [
            BatchMapping(
                blocks=[
                    self._reordered_mapping(
                        blocks,
                        m.block_index,
                        m.crossbar_index,
                        fault_maps_by_id[m.crossbar_index],
                    )
                    for m in plan.blocks
                ]
            )
            for plan, blocks in zip(plans, blocks_per_batch)
        ]

    def _reordered_mapping(
        self,
        blocks: Sequence[np.ndarray],
        block_index: int,
        crossbar_index: int,
        fault_map: FaultMap,
    ) -> BlockMapping:
        block = blocks[block_index]
        permutation = self._group_permutation(block, fault_map)
        cost, sa1 = permutation_mismatch_cost(block, fault_map, permutation)
        return BlockMapping(block_index, crossbar_index, permutation, cost, sa1)

    def _group_permutation(self, block: np.ndarray, fault_map: FaultMap) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64)
        n = block.shape[0]
        group = min(self.group_size, n)
        num_groups = n // group
        if num_groups <= 1:
            return np.arange(n, dtype=np.int64)
        usable = num_groups * group
        ones = (block[:usable] > 0).reshape(num_groups, group, -1)
        sa0 = fault_map.sa0[:usable].reshape(num_groups, group, -1)
        sa1 = fault_map.sa1[:usable].reshape(num_groups, group, -1)
        # cost[g, h] = mismatches when block group g is stored in crossbar
        # group h, keeping the within-group row order (coarse unit).
        ones_flat = ones.reshape(num_groups, -1)
        zeros_flat = 1.0 - ones_flat
        sa0_flat = sa0.reshape(num_groups, -1).astype(np.float64)
        sa1_flat = sa1.reshape(num_groups, -1).astype(np.float64)
        cost = ones_flat @ sa0_flat.T + zeros_flat @ sa1_flat.T
        group_assignment, _ = greedy_assignment(cost)
        permutation = np.arange(n, dtype=np.int64)
        for g in range(num_groups):
            target = int(group_assignment[g])
            permutation[g * group : (g + 1) * group] = np.arange(
                target * group, (target + 1) * group, dtype=np.int64
            )
        return permutation


class SeedPairLoop:
    """Per-pair mapping costs behind the cost engine's call interface.

    Every (block, crossbar) pair is solved on its own with
    :func:`block_crossbar_cost`: ``B·M`` Python-level
    calls, each with two dense matmuls and a full assignment solve, and all
    ``B·M`` permutations materialised although at most ``B`` are used.
    Nothing is cached, so its ``stats`` stay zero.
    """

    def __init__(self, sa1_weight: float, row_method: str) -> None:
        self.sa1_weight = sa1_weight
        self.row_method = row_method
        self.stats = CostEngineStats()

    def _pair(
        self, block: np.ndarray, fault_map: FaultMap
    ) -> Tuple[float, np.ndarray, float]:
        return block_crossbar_cost(
            block, fault_map, self.sa1_weight, method=self.row_method
        )

    def pair_results(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> List[Tuple[float, np.ndarray, float]]:
        return [self._pair(block, fmap) for block, fmap in zip(blocks, fault_maps)]

    def plan_pairwise(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> Tuple[np.ndarray, np.ndarray, Callable[[int, int], np.ndarray]]:
        costs = np.zeros((len(blocks), len(fault_maps)))
        sa1_mismatches = np.zeros((len(blocks), len(fault_maps)))
        permutations: List[List[np.ndarray]] = [[None] * len(fault_maps) for _ in blocks]
        for j, fmap in enumerate(fault_maps):
            for i, block in enumerate(blocks):
                cost, perm, sa1 = self._pair(block, fmap)
                costs[i, j] = cost
                sa1_mismatches[i, j] = sa1
                permutations[i][j] = perm
        return costs, sa1_mismatches, lambda i, j: permutations[i][j]


class SeedLoopMapper(FaultAwareMapper):
    """:class:`FaultAwareMapper` whose pair costs come from the seed loop.

    Serves :meth:`map_blocks` and :meth:`update_row_permutations`, and so
    every ``FaReStrategy`` entry point, re-plans included.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cost_engine = SeedPairLoop(self.sa1_weight, self.row_method)
