"""Uncached seed paths of the simulated accelerator read-back.

References for :mod:`repro.pipeline.mapping_engine` and
:mod:`repro.core.hw_state`: the eager dense block decomposition, one
program/read round trip per adjacency block, the full bit-sliced weight
pipeline, and a state cache that recomputes every view.
:func:`uncached_hardware` makes a :class:`FaultyTrainer` built inside it run
the last three — the seed per-batch recomputation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple
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


def dense_decompose_adjacency(
    adjacency: CSRMatrix, rows: int, cols: int
) -> Tuple[List[np.ndarray], Tuple[int, int]]:
    """Eager decomposition into every ``rows × cols`` dense block at once.

    The reference for :class:`~repro.pipeline.mapping_engine.AdjacencyBlocks`:
    a stable sort groups the entries per block without reordering them inside
    a block, one fancy-index assignment per non-empty block resolves
    duplicate ``(row, col)`` entries last-wins, and ``> 0`` binarises.  Empty
    blocks alias one zero array.  Returns ``(blocks, (row_blocks,
    col_blocks))`` in row-major order.
    """
    n, m = adjacency.shape
    row_blocks = max(1, -(-n // rows))
    col_blocks = max(1, -(-m // cols))

    entry_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adjacency.indptr))
    indices = adjacency.indices
    bi = entry_rows // rows
    bj = indices // cols
    block_ids = bi * col_blocks + bj
    order = np.argsort(block_ids, kind="stable")
    sorted_ids = block_ids[order]
    local_r = (entry_rows - bi * rows)[order]
    local_c = (indices - bj * cols)[order]
    sorted_data = adjacency.data[order]

    blocks: List[np.ndarray] = [np.zeros((rows, cols))] * (row_blocks * col_blocks)
    if sorted_ids.size:
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [sorted_ids.size]))
        for start, stop in zip(starts, stops):
            block = np.zeros((rows, cols), dtype=np.float64)
            block[local_r[start:stop], local_c[start:stop]] = sorted_data[start:stop]
            blocks[int(sorted_ids[start])] = (block > 0).astype(np.float64)
    return blocks, (row_blocks, col_blocks)


class LoopAdjacencyMapper(AdjacencyCrossbarMapper):
    """Adjacency read-back through one program/read round trip per block.

    Decompose into dense blocks (:func:`dense_decompose_adjacency`), program
    and read each block on its crossbar, assemble the dense grid, truncate it
    to ``n × m``, zero the diagonal and convert back to CSR.
    """

    def apply_mapping(self, adjacency: CSRMatrix, mapping: BatchMapping) -> CSRMatrix:
        rows = self.config.crossbar_rows
        cols = self.config.crossbar_cols
        blocks, (row_blocks, col_blocks) = dense_decompose_adjacency(
            adjacency, rows, cols
        )
        if len(mapping) != len(blocks):
            raise ValueError(
                f"mapping covers {len(mapping)} blocks but the adjacency has "
                f"{len(blocks)}"
            )
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
        n, m = adjacency.shape
        faulty_dense = faulty_dense[:n, :m]
        np.fill_diagonal(faulty_dense, 0.0)
        return CSRMatrix.from_dense(faulty_dense)


class BitSlicedWeightMapper(WeightCrossbarMapper):
    """Effective weights through quantise → bit-slice → fault → reassemble.

    Each named matrix runs the pipeline on its own, in turn.
    """

    def effective_weights(
        self,
        names,
        values: np.ndarray,
        row_permutations=None,
        count_write: bool = True,
    ) -> np.ndarray:
        names = tuple(names)
        if row_permutations is None:
            row_permutations = (None,) * len(names)
        values = np.asarray(values, dtype=np.float64)
        parts, start = [], 0
        for name, row_permutation in zip(names, row_permutations):
            layout = self.layout(name)
            stop = start + layout.shape[0] * layout.shape[1]
            parts.append(
                self._bit_sliced(
                    layout, values[start:stop].reshape(layout.shape), row_permutation
                ).ravel()
            )
            if count_write:
                self.weight_write_events += layout.num_crossbars
            start = stop
        if start != values.size:
            raise ValueError(f"values hold {values.size} weights, layouts {start}")
        return np.concatenate(parts)

    def _bit_sliced(self, layout, values: np.ndarray, row_permutation) -> np.ndarray:
        rows = layout.shape[0]
        if row_permutation is None:
            permutation = np.arange(rows, dtype=np.int64)
        else:
            permutation = check_permutation(row_permutation, rows, "row_permutation")
        stored = np.empty_like(values)
        stored[permutation] = values

        cells = codes_to_cells(quantize(stored, self.fmt), self.fmt)
        sa0, sa1 = self._fault_cache[layout.name]
        faulty_matrix = apply_faults_to_cells(
            cells.reshape(layout.cell_shape), sa0, sa1, self.fmt.cell_levels
        )
        faulty_codes = cells_to_codes(faulty_matrix.reshape(cells.shape), self.fmt)
        return dequantize(faulty_codes, self.fmt)[permutation]


class PassThroughStateCache(HardwareStateCache):
    """A hardware-state cache that recomputes every view on every call.

    It keeps no entries, so it has nothing for
    :meth:`~HardwareStateCache.replay_adjacency_writes` to replay: it serves
    the per-batch training loop, not ``train_mode="fused"``.
    """

    def batch_adjacency(
        self, batch_index: int, adjacency: CSRMatrix, mapping
    ) -> CSRMatrix:
        return self.adjacency_mapper.apply_mapping(adjacency, mapping)

    def effective_weights(
        self,
        name: str,
        key: Tuple,
        read_back: Callable[[Tuple[str, ...]], Dict[str, np.ndarray]],
        count_write: bool = False,
    ) -> np.ndarray:
        # The seed pipeline: every fetch reads its one weight back.
        if count_write:
            self.weight_mapper.record_write(name)
        return read_back((name,))[name]


class EpochSumStateCache(HardwareStateCache):
    """The cache keyed on the sum of the adjacency crossbars' ``fault_epoch``.

    The key before the pool's fault clock: it walks every adjacency
    crossbar on every fetch.  A trainer on the clock must hit and miss
    exactly where this one does.
    """

    def _adjacency_key(self) -> Tuple:
        fault_state = sum(x.fault_epoch for x in self.adjacency_mapper.crossbars)
        return (self._plan_version, fault_state)


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
