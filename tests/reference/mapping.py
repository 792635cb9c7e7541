"""Seed mapping loops: references for the cost engine and the sequential plan.

* :func:`block_row_cost_matrix` / :func:`block_crossbar_cost` — one
  (block, crossbar) pair's row-cost matrices and its best row permutation,
  solved on its own;
* :class:`SeedPairLoop` / :class:`SeedLoopMapper` — the per-pair loop behind
  Algorithm 1 (for :class:`~repro.core.cost_engine.MappingCostEngine`);
* :func:`seed_sequential_mapping` — the fault-unaware plan with one
  :func:`~repro.core.mapping.permutation_mismatch_cost` call per dense block
  (for the edge-coordinate count of
  :func:`~repro.core.mapping.sequential_plans`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_engine import CostEngineStats
from repro.core.mapping import (
    BatchMapping,
    BlockMapping,
    FaultAwareMapper,
    permutation_mismatch_cost,
)
from repro.hardware.faults import FaultMap
from repro.matching.bipartite import solve_assignment


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
