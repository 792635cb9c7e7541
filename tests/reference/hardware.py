"""Uncached seed paths of the simulated accelerator read-back.

References for :mod:`repro.pipeline.mapping_engine` and
:mod:`repro.core.hw_state`: one program/read round trip per adjacency block,
the full bit-sliced weight pipeline, and a state cache that recomputes every
view.  :func:`uncached_hardware` makes a :class:`FaultyTrainer` built inside
it run all three — the seed per-batch recomputation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np

from repro.core.hw_state import HardwareStateCache
from repro.core.mapping import BatchMapping
from repro.graph.sparse import CSRMatrix
from repro.hardware.faults import apply_faults_to_cells
from repro.hardware.quantization import (
    cells_to_codes,
    codes_to_cells,
    dequantize,
    quantize,
)
from repro.pipeline.mapping_engine import (
    AdjacencyCrossbarMapper,
    WeightCrossbarMapper,
)
from repro.utils.validation import check_permutation


class LoopAdjacencyMapper(AdjacencyCrossbarMapper):
    """Adjacency read-back through one program/read round trip per block."""

    def _read_back(
        self,
        blocks: List[np.ndarray],
        mapping: BatchMapping,
        grid: Tuple[int, int],
    ) -> np.ndarray:
        rows = self.config.crossbar_rows
        cols = self.config.crossbar_cols
        row_blocks, col_blocks = grid
        faulty_dense = np.zeros((row_blocks * rows, col_blocks * cols), dtype=np.float64)
        for block_mapping in mapping.blocks:
            index = block_mapping.block_index
            crossbar = self.by_id[block_mapping.crossbar_index]
            crossbar.program_binary(
                blocks[index], row_permutation=block_mapping.row_permutation
            )
            self.block_write_events += 1
            read_back = crossbar.read_binary(
                row_permutation=block_mapping.row_permutation
            )
            bi, bj = divmod(index, col_blocks)
            faulty_dense[bi * rows : (bi + 1) * rows, bj * cols : (bj + 1) * cols] = read_back
        return faulty_dense


class BitSlicedWeightMapper(WeightCrossbarMapper):
    """Effective weights through quantise → bit-slice → fault → reassemble."""

    def effective_weights(
        self,
        name: str,
        values: np.ndarray,
        row_permutation: Optional[np.ndarray] = None,
        count_write: bool = True,
    ) -> np.ndarray:
        layout = self.layout(name)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != layout.shape:
            raise ValueError(
                f"values shape {values.shape} does not match layout {layout.shape}"
            )
        rows = layout.shape[0]
        if row_permutation is None:
            permutation = np.arange(rows, dtype=np.int64)
        else:
            permutation = check_permutation(row_permutation, rows, "row_permutation")
        stored = np.empty_like(values)
        stored[permutation] = values

        cells = codes_to_cells(quantize(stored, self.fmt), self.fmt)
        sa0, sa1 = self._fault_cache[name]
        faulty_matrix = apply_faults_to_cells(
            cells.reshape(layout.cell_shape), sa0, sa1, self.fmt.cell_levels
        )
        faulty_codes = cells_to_codes(faulty_matrix.reshape(cells.shape), self.fmt)
        result = dequantize(faulty_codes, self.fmt)[permutation]
        if count_write:
            self.weight_write_events += layout.num_crossbars
        return result


class PassThroughStateCache(HardwareStateCache):
    """A hardware-state cache that recomputes every view on every call.

    It keeps no entries, so it has nothing for
    :meth:`~HardwareStateCache.replay_adjacency_writes` to replay: it serves
    the per-batch training loop, not ``train_mode="fused"``.
    """

    def batch_adjacency(
        self, batch_index: int, adjacency: CSRMatrix, mapping, blocks=None, grid=None
    ) -> CSRMatrix:
        return self.adjacency_mapper.apply_mapping(
            adjacency, mapping, blocks=blocks, grid=grid
        )

    def effective_weights(
        self,
        name: str,
        key: Tuple,
        compute: Callable[[], np.ndarray],
        count_hit_write: bool = False,
    ) -> np.ndarray:
        return compute()


@contextmanager
def uncached_hardware() -> Iterator[None]:
    """Trainers built in this block run the seed per-batch recomputation."""
    with mock.patch.multiple(
        "repro.pipeline.trainer",
        AdjacencyCrossbarMapper=LoopAdjacencyMapper,
        WeightCrossbarMapper=BitSlicedWeightMapper,
        HardwareStateCache=PassThroughStateCache,
    ):
        yield
