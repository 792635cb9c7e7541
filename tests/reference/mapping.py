"""The seed per-pair loop behind Algorithm 1 (reference for the cost engine)."""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.mapping import FaultAwareMapper, block_crossbar_cost
from repro.hardware.faults import FaultMap


class SeedPairLoop:
    """Per-pair mapping costs behind the cost engine's call interface.

    Every (block, crossbar) pair is solved on its own with
    :func:`~repro.core.mapping.block_crossbar_cost`: ``B·M`` Python-level
    calls, each with two dense matmuls and a full assignment solve, and all
    ``B·M`` permutations materialised although at most ``B`` are used.
    """

    def __init__(self, sa1_weight: float, row_method: str) -> None:
        self.sa1_weight = sa1_weight
        self.row_method = row_method

    def block_crossbar_cost(
        self, block: np.ndarray, fault_map: FaultMap
    ) -> Tuple[float, np.ndarray, float]:
        return block_crossbar_cost(
            block, fault_map, self.sa1_weight, method=self.row_method
        )

    def pairwise_costs(
        self, blocks: Sequence[np.ndarray], fault_maps: Sequence[FaultMap]
    ) -> Tuple[np.ndarray, np.ndarray, Callable[[int, int], np.ndarray]]:
        costs = np.zeros((len(blocks), len(fault_maps)))
        sa1_mismatches = np.zeros((len(blocks), len(fault_maps)))
        permutations: List[List[np.ndarray]] = [[None] * len(fault_maps) for _ in blocks]
        for j, fmap in enumerate(fault_maps):
            for i, block in enumerate(blocks):
                cost, perm, sa1 = self.block_crossbar_cost(block, fmap)
                costs[i, j] = cost
                sa1_mismatches[i, j] = sa1
                permutations[i][j] = perm
        return costs, sa1_mismatches, lambda i, j: permutations[i][j]


class SeedLoopMapper(FaultAwareMapper):
    """:class:`FaultAwareMapper` whose pair costs come from the seed loop.

    Serves :meth:`map_blocks` and :meth:`update_row_permutations`; the
    delta-planning entry points need the engine's plan contexts.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cost_engine = SeedPairLoop(self.sa1_weight, self.row_method)
