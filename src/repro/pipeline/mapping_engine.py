"""Mapping GNN data structures onto (faulty) ReRAM crossbars.

Two mappers mirror the two computation phases:

* :class:`WeightCrossbarMapper` — combination phase.  Every 2-D model
  parameter is quantised to 16-bit fixed point, bit-sliced into 2-bit cells
  and tiled over a dedicated set of crossbars.  Reading the weights back
  applies the crossbars' stuck-at faults cell-wise and reassembles the
  (possibly exploded) floating point values.
* :class:`AdjacencyCrossbarMapper` — aggregation phase.  The binary adjacency
  of a mini-batch subgraph is decomposed into crossbar-sized blocks which are
  programmed onto the crossbars chosen by the active strategy's
  :class:`~repro.core.mapping.BatchMapping` (with the strategy's row
  permutations); the faulty read-back is reassembled into the adjacency the
  GNN actually aggregates with.

:class:`HardwareEnvironment` bundles the accelerator state shared by both:
the crossbar pool (with injected faults), the BIST controller, the
fixed-point format, and the split of crossbars between weights and adjacency.

Both mappers read back through vectorised paths — a stacked fault-mask
gather for the adjacency read-back, a fused per-code mask application for the
weights — that the epoch cache in :mod:`repro.core.hw_state` builds on.  The
seed per-block program/read loop and the bit-sliced weight pipeline they
replace live in ``tests/reference/hardware.py``; both fast paths are
bit-identical to them (enforced by ``tests/test_core_hw_state.py``).

How these mappers sit between the strategy layer (which plans the mappings
and reports the cost engine's / hardware-state cache's work counters through
:meth:`~repro.core.strategies.Strategy.mapping_engine_stats` into the trainer
counters and :attr:`~repro.pipeline.timing.TimingBreakdown.components`) and
the crossbar layer below is documented in ``docs/ARCHITECTURE.md``, together
with the two cache-invalidation protocols that keep the fast paths honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import BatchMapping
from repro.graph.sparse import CSRMatrix
from repro.hardware.config import DEFAULT_CONFIG, ReRAMConfig
from repro.hardware.bist import BISTController
from repro.hardware.crossbar import Crossbar
from repro.hardware.faults import (
    FaultMap,
    FaultModel,
    apply_faults_to_binary_batch,
)
from repro.hardware.quantization import (
    FixedPointFormat,
    codes_to_cells,
    fault_code_masks,
    quantize,
    quantize_faulty_dequantize,
)
from repro.hardware.tile import CrossbarPool
from repro.tensor.module import Module
from repro.utils.validation import check_permutation


# --------------------------------------------------------------------------- #
# Weight mapping
# --------------------------------------------------------------------------- #
@dataclass
class WeightLayout:
    """Physical placement of one weight matrix on the weight crossbars."""

    name: str
    shape: Tuple[int, int]
    cell_shape: Tuple[int, int]
    tiles: List[Tuple[Crossbar, slice, slice]] = field(default_factory=list)

    @property
    def num_crossbars(self) -> int:
        return len(self.tiles)


class WeightCrossbarMapper:
    """Maps every 2-D model parameter onto a pool of weight crossbars."""

    def __init__(
        self,
        model: Module,
        crossbars: Sequence[Crossbar],
        fmt: FixedPointFormat,
        config: ReRAMConfig = DEFAULT_CONFIG,
    ) -> None:
        self.fmt = fmt
        self.config = config
        #: Bumped on every :meth:`refresh_fault_masks`; effective-weight
        #: caches key on it (see :mod:`repro.core.hw_state`).
        self.fault_version = 0
        self._crossbars = list(crossbars)
        self.layouts: Dict[str, WeightLayout] = {}
        self.weight_write_events = 0
        cursor = 0
        for dotted_name, param in model.named_parameters():
            if param.data.ndim != 2:
                continue
            # Layers identify their weights by the parameter's own ``name``
            # (set at initialisation); fall back to the dotted module path
            # for parameters created without one.
            name = getattr(param, "name", "") or dotted_name
            if name in self.layouts:
                raise ValueError(f"duplicate hardware parameter name {name!r}")
            rows, cols = param.data.shape
            cell_cols = cols * fmt.num_cells
            layout = WeightLayout(
                name=name, shape=(rows, cols), cell_shape=(rows, cell_cols)
            )
            for row_start in range(0, rows, config.crossbar_rows):
                row_stop = min(row_start + config.crossbar_rows, rows)
                for col_start in range(0, cell_cols, config.crossbar_cols):
                    col_stop = min(col_start + config.crossbar_cols, cell_cols)
                    if cursor >= len(self._crossbars):
                        raise ValueError(
                            "not enough weight crossbars: parameter "
                            f"{name!r} needs more than {len(self._crossbars)}"
                        )
                    layout.tiles.append(
                        (
                            self._crossbars[cursor],
                            slice(row_start, row_stop),
                            slice(col_start, col_stop),
                        )
                    )
                    cursor += 1
            self.layouts[name] = layout
        self.crossbars_used = cursor
        self._fault_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._code_masks: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        # Last validated row permutation per parameter, keyed by the identity
        # of the caller's array: strategies hand the same permutation object
        # to every per-batch re-programming, so re-validating it each call is
        # pure hot-loop overhead (the strong reference keeps ``is`` sound).
        self._perm_cache: Dict[str, Tuple[Any, np.ndarray]] = {}
        self.refresh_fault_masks()

    # ------------------------------------------------------------------ #
    def refresh_fault_masks(self) -> None:
        """Re-assemble the per-parameter fault masks from the crossbar maps.

        Must be called after post-deployment faults change the crossbars'
        fault maps.  Also rebuilds the per-code clear/set masks the fused
        read-back path consumes and bumps :attr:`fault_version`.
        """
        self._fault_cache.clear()
        self._code_masks.clear()
        for name, layout in self.layouts.items():
            sa0 = np.zeros(layout.cell_shape, dtype=bool)
            sa1 = np.zeros(layout.cell_shape, dtype=bool)
            for crossbar, row_slice, col_slice in layout.tiles:
                local_rows = row_slice.stop - row_slice.start
                local_cols = col_slice.stop - col_slice.start
                sa0[row_slice, col_slice] = crossbar.fault_map.sa0[:local_rows, :local_cols]
                sa1[row_slice, col_slice] = crossbar.fault_map.sa1[:local_rows, :local_cols]
            self._fault_cache[name] = (sa0, sa1)
            self._code_masks[name] = fault_code_masks(sa0, sa1, self.fmt)
        self.fault_version += 1

    def layout(self, name: str) -> WeightLayout:
        if name not in self.layouts:
            raise KeyError(f"parameter {name!r} is not mapped to weight crossbars")
        return self.layouts[name]

    @property
    def num_weight_crossbars(self) -> int:
        """Total crossbars occupied by weights (used by the timing model)."""
        return self.crossbars_used

    # ------------------------------------------------------------------ #
    def row_fault_severity(self, name: str) -> np.ndarray:
        """Per-(logical row, cell column) fault severity for NR's reordering.

        The severity of a faulty cell is the magnitude of the value range it
        controls (``cell_levels ** position`` counted from the LSB cell), so
        MSB-cell faults dominate the sum — matching the weight-explosion
        asymmetry.
        """
        layout = self.layout(name)
        sa0, sa1 = self._fault_cache[name]
        any_fault = (sa0 | sa1).astype(np.float64)
        num_cells = self.fmt.num_cells
        significance = np.array(
            [float(self.fmt.cell_levels ** (num_cells - 1 - i)) for i in range(num_cells)]
        )
        weights = np.tile(significance, layout.shape[1])
        return any_fault * weights[None, :]

    def row_mismatch_cost(self, name: str, values: np.ndarray) -> np.ndarray:
        """Cell-mismatch cost of storing each logical row at each physical row.

        ``cost[r, s]`` counts the cells of logical weight row ``r`` whose
        programmed value would disagree with a stuck cell at physical row
        ``s`` (SA0 vs a non-zero cell, SA1 vs a non-saturated cell).  This is
        the "overlap with SAFs" objective that neuron-reordering remapping
        minimises; it deliberately ignores the SA0/SA1 asymmetry and the cell
        significance, matching the baseline's behaviour in the paper.
        """
        layout = self.layout(name)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != layout.shape:
            raise ValueError(
                f"values shape {values.shape} does not match layout {layout.shape}"
            )
        cells = codes_to_cells(quantize(values, self.fmt), self.fmt)
        cell_matrix = cells.reshape(layout.cell_shape)
        sa0, sa1 = self._fault_cache[name]
        nonzero = (cell_matrix != 0).astype(np.float64)
        unsaturated = (cell_matrix != self.fmt.cell_levels - 1).astype(np.float64)
        return nonzero @ sa0.astype(np.float64).T + unsaturated @ sa1.astype(np.float64).T

    # ------------------------------------------------------------------ #
    def record_write(self, name: str) -> None:
        """Account one simulated re-programming of ``name``'s crossbars.

        Used by the effective-weight cache on training-time hits: the
        hardware re-programs the weights every batch even when the simulator
        serves the faulty view from cache.
        """
        self.weight_write_events += self.layout(name).num_crossbars

    def effective_weights(
        self,
        name: str,
        values: np.ndarray,
        row_permutation: Optional[np.ndarray] = None,
        count_write: bool = True,
    ) -> np.ndarray:
        """Return the weights the crossbars actually provide to the MVM.

        The precomputed per-code clear/set masks are applied in a single
        integer quantise → fault → dequantise pass (no per-cell
        intermediates).

        Parameters
        ----------
        name:
            Parameter name (must have been registered at construction).
        values:
            Current master (digital) weight values.
        row_permutation:
            Optional storage permutation: logical row ``i`` is programmed
            into physical row ``row_permutation[i]`` (the NR baseline's
            remapping).  The returned matrix is already un-permuted, i.e. it
            is the effective value of the *logical* weight matrix.
        count_write:
            Whether this call represents a re-programming of the weights
            (True during training, False for read-only analyses).
        """
        layout = self.layout(name)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != layout.shape:
            raise ValueError(
                f"values shape {values.shape} does not match layout {layout.shape}"
            )
        clear, set_ = self._code_masks[name]
        if row_permutation is not None:
            cached = self._perm_cache.get(name)
            if cached is not None and cached[0] is row_permutation:
                permutation = cached[1]
            else:
                permutation = check_permutation(
                    row_permutation, layout.shape[0], "row_permutation"
                )
                self._perm_cache[name] = (row_permutation, permutation)
            # Logical row ``i`` sits at physical row ``permutation[i]``, so
            # gathering the per-code masks with the permutation applies the
            # physical faults directly to the logical matrix — no
            # scatter/gather round trip through the stored layout.
            clear = clear[permutation]
            set_ = set_[permutation]
        result = quantize_faulty_dequantize(values, clear, set_, self.fmt)
        if count_write:
            self.weight_write_events += layout.num_crossbars
        return result


# --------------------------------------------------------------------------- #
# Adjacency mapping
# --------------------------------------------------------------------------- #
@dataclass
class DecomposeCounters:
    """Peak-memory accounting for the sparse block decomposition.

    ``bytes_dense_padded_avoided`` is the size of the padded
    ``(row_blocks·rows) × (col_blocks·cols)`` float64 array the pre-streaming
    implementation materialised minus what the sparse path actually allocated
    — the number the million-node benchmark's peak-RSS ceiling rests on.
    """

    decompose_calls: int = 0
    blocks_materialised: int = 0
    blocks_shared_zero: int = 0
    bytes_materialised: int = 0
    bytes_dense_padded_avoided: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "decompose_calls": self.decompose_calls,
            "decompose_blocks_materialised": self.blocks_materialised,
            "decompose_blocks_shared_zero": self.blocks_shared_zero,
            "decompose_bytes_materialised": self.bytes_materialised,
            "decompose_bytes_dense_padded_avoided": self.bytes_dense_padded_avoided,
        }

    def reset(self) -> None:
        self.decompose_calls = 0
        self.blocks_materialised = 0
        self.blocks_shared_zero = 0
        self.bytes_materialised = 0
        self.bytes_dense_padded_avoided = 0


#: Module-level accounting, mirroring ``tensor.kernels.COUNTERS``: cheap
#: integer bumps on the hot path, read (and reset) by tests and the
#: streaming-mode benchmark leg.
DECOMPOSE_COUNTERS = DecomposeCounters()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    The peak-memory accounting hook for the memory-bounded streaming mode:
    the million-node benchmark leg runs in a subprocess and asserts this
    stays under the documented ceiling.

    On Linux this reads ``VmHWM`` from ``/proc/self/status`` rather than
    ``getrusage``: ``ru_maxrss`` survives ``execve`` (it lives in the
    signal-struct accounting, not the replaced ``mm``), so a child spawned
    by a fat parent — e.g. the benchmark subprocess under a pytest session
    that just ran the kernel benchmarks — would inherit the *parent's*
    peak.  ``VmHWM`` belongs to the fresh address space and starts clean.
    """
    import resource
    import sys

    try:  # pragma: no branch
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-procfs platforms
        pass
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes here
        return int(usage)
    return int(usage) * 1024


_SHARED_ZERO_BLOCKS: Dict[Tuple[int, int], np.ndarray] = {}


def _shared_zero_block(rows: int, cols: int) -> np.ndarray:
    """One immutable all-zero block per geometry, shared by every empty slot.

    Consumers treat decomposition blocks as read-only (they are stacked,
    programmed and compared, never written), so empty blocks — the vast
    majority at streaming scale, where a batch touches a handful of column
    blocks out of thousands — can alias a single frozen array.
    """
    key = (rows, cols)
    block = _SHARED_ZERO_BLOCKS.get(key)
    if block is None:
        block = np.zeros((rows, cols), dtype=np.float64)
        block.flags.writeable = False
        _SHARED_ZERO_BLOCKS[key] = block
    return block


def decompose_adjacency(
    adjacency: CSRMatrix, rows: int, cols: int
) -> Tuple[List[np.ndarray], Tuple[int, int]]:
    """Split a (binary) adjacency into ``rows × cols`` dense blocks.

    Blocks on the right/bottom edge are zero-padded to the crossbar shape.
    Returns ``(blocks, (row_blocks, col_blocks))`` in row-major order.  A
    free function (rather than only a mapper method) so the sweep engine can
    compute the decomposition once per ``(graph, geometry)`` and share it
    across every run of a grid.

    Memory contract (streaming mode): only blocks that contain at least one
    CSR entry are materialised — O(nnz + nonempty·rows·cols) — and empty
    blocks alias one shared read-only zero array.  Nothing the size of the
    padded dense matrix is ever allocated, which is what lets a 10^6-node
    graph decompose batch-by-batch inside a fixed memory budget
    (``DECOMPOSE_COUNTERS`` records the avoided allocation;
    :func:`peak_rss_bytes` is the matching process-level hook).  The blocks
    are bit-identical to the dense scatter this replaces: a stable sort
    groups entries per block without reordering them inside a block, so
    duplicate ``(row, col)`` entries resolve last-wins exactly as the single
    dense fancy-index assignment did, and the same ``> 0`` threshold
    binarises the result.
    """
    n, m = adjacency.shape
    row_blocks = max(1, -(-n // rows))
    col_blocks = max(1, -(-m // cols))
    total_blocks = row_blocks * col_blocks

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

    zero = _shared_zero_block(rows, cols)
    blocks: List[np.ndarray] = [zero] * total_blocks
    if sorted_ids.size:
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [sorted_ids.size]))
        for start, stop in zip(starts, stops):
            block = np.zeros((rows, cols), dtype=np.float64)
            block[local_r[start:stop], local_c[start:stop]] = sorted_data[start:stop]
            blocks[int(sorted_ids[start])] = (block > 0).astype(np.float64)
        materialised = len(starts)
    else:
        materialised = 0

    block_bytes = rows * cols * 8
    DECOMPOSE_COUNTERS.decompose_calls += 1
    DECOMPOSE_COUNTERS.blocks_materialised += materialised
    DECOMPOSE_COUNTERS.blocks_shared_zero += total_blocks - materialised
    DECOMPOSE_COUNTERS.bytes_materialised += materialised * block_bytes
    DECOMPOSE_COUNTERS.bytes_dense_padded_avoided += (
        total_blocks - materialised
    ) * block_bytes
    return blocks, (row_blocks, col_blocks)


class AdjacencyCrossbarMapper:
    """Programs per-batch adjacency blocks onto crossbars and reads them back."""

    def __init__(
        self,
        crossbars: Sequence[Crossbar],
        config: ReRAMConfig = DEFAULT_CONFIG,
    ) -> None:
        if not crossbars:
            raise ValueError("adjacency mapper needs at least one crossbar")
        self.config = config
        self.crossbars = list(crossbars)
        self.by_id: Dict[int, Crossbar] = {x.crossbar_id: x for x in self.crossbars}
        self.block_write_events = 0

    @property
    def crossbar_ids(self) -> List[int]:
        return [x.crossbar_id for x in self.crossbars]

    def fault_maps(self) -> List[FaultMap]:
        return [x.fault_map for x in self.crossbars]

    def fault_maps_by_id(self) -> Dict[int, FaultMap]:
        return {x.crossbar_id: x.fault_map for x in self.crossbars}

    def writes_per_crossbar(self, mapping: BatchMapping) -> List[Tuple[Crossbar, int]]:
        """Resolved ``(crossbar, full-array writes)`` pairs for one mapping.

        One entry per distinct target crossbar, counting the blocks programmed
        onto it — the simulated write-accounting unit.  Single source for both
        the read-back's bulk endurance update and the epoch cache's hit
        replay (:mod:`repro.core.hw_state`), so the two cannot diverge.
        """
        counts: Dict[int, int] = {}
        for block_mapping in mapping.blocks:
            counts[block_mapping.crossbar_index] = (
                counts.get(block_mapping.crossbar_index, 0) + 1
            )
        return [(self.by_id[index], count) for index, count in counts.items()]

    # ------------------------------------------------------------------ #
    def decompose(self, adjacency: CSRMatrix) -> Tuple[List[np.ndarray], Tuple[int, int]]:
        """Split a (binary) adjacency into crossbar-sized dense blocks.

        Blocks on the right/bottom edge are zero-padded to the crossbar shape.
        Returns ``(blocks, (row_blocks, col_blocks))`` in row-major order.
        """
        return decompose_adjacency(
            adjacency, self.config.crossbar_rows, self.config.crossbar_cols
        )

    def apply_mapping(
        self,
        adjacency: CSRMatrix,
        mapping: BatchMapping,
        blocks: Optional[List[np.ndarray]] = None,
        grid: Optional[Tuple[int, int]] = None,
    ) -> CSRMatrix:
        """Program the blocks per ``mapping`` and return the faulty adjacency.

        The returned matrix is the structural adjacency the aggregation phase
        actually uses: SA1 cells appear as spurious edges, SA0 cells delete
        stored edges.
        """
        if blocks is None or grid is None:
            blocks, grid = self.decompose(adjacency)
        if len(mapping) != len(blocks):
            raise ValueError(
                f"mapping covers {len(mapping)} blocks but the adjacency has "
                f"{len(blocks)}"
            )
        faulty_dense = self._read_back(blocks, mapping, grid)
        n = adjacency.shape[0]
        faulty_dense = faulty_dense[:n, : adjacency.shape[1]]
        # Faults outside the logical adjacency area (padding region) are
        # irrelevant; the truncation above drops them.
        np.fill_diagonal(faulty_dense, 0.0)
        return CSRMatrix.from_dense(faulty_dense)

    def _read_back(
        self,
        blocks: List[np.ndarray],
        mapping: BatchMapping,
        grid: Tuple[int, int],
    ) -> np.ndarray:
        """Vectorised read-back: one fault gather over the stacked batch.

        Per block, programming then reading through the stuck-at masks
        reduces to ``where(sa1[perm], 1, where(sa0[perm], 0, block))``; the
        whole batch is resolved with a single fancy-indexed gather over the
        stacked per-crossbar masks and one ``np.where`` chain, then scattered
        into the dense grid with one reshape/transpose.  Crossbar state
        (stored contents, endurance counters) is updated in bulk so it ends
        exactly where one ``program_binary``/``read_binary`` round trip per
        block would leave it.
        """
        rows = self.config.crossbar_rows
        cols = self.config.crossbar_cols
        row_blocks, col_blocks = grid
        order = mapping.blocks
        block_idx = np.array([m.block_index for m in order], dtype=np.int64)
        stacked = np.stack([np.asarray(blocks[i]) for i in block_idx])
        if stacked.shape[1:] != (rows, cols):
            raise ValueError(
                f"binary block shape {stacked.shape[1:]} must equal crossbar "
                f"shape ({rows}, {cols})"
            )
        ones = (stacked > 0).astype(np.float64)
        perms = np.stack(
            [
                check_permutation(m.row_permutation, rows, "row_permutation")
                for m in order
            ]
        )

        unique_index: Dict[int, int] = {}
        for m in order:
            unique_index.setdefault(m.crossbar_index, len(unique_index))
        unique_ids = list(unique_index)
        sa0_stack = np.stack([self.by_id[c].fault_map.sa0 for c in unique_ids])
        sa1_stack = np.stack([self.by_id[c].fault_map.sa1 for c in unique_ids])
        owner = np.array([unique_index[m.crossbar_index] for m in order], dtype=np.int64)
        # sa*_sel[b, i, :] = sa*_stack[owner[b], perms[b, i], :] — the fault
        # rows each logical block row actually lands on.
        sa0_sel = sa0_stack[owner[:, None], perms]
        sa1_sel = sa1_stack[owner[:, None], perms]
        read_stack = apply_faults_to_binary_batch(ones, sa0_sel, sa1_sel)

        grid_arr = np.zeros((row_blocks, col_blocks, rows, cols), dtype=np.float64)
        grid_arr[block_idx // col_blocks, block_idx % col_blocks] = read_stack
        faulty_dense = (
            grid_arr.transpose(0, 2, 1, 3).reshape(row_blocks * rows, col_blocks * cols)
        )

        # Bulk hardware-state update: endurance counters advance by the
        # per-crossbar block count, stored contents end at the last block
        # programmed per crossbar (matching the loop's final state).
        for crossbar, count in self.writes_per_crossbar(mapping):
            crossbar.record_simulated_writes(count)
        last: Dict[int, int] = {}
        for position, m in enumerate(order):
            last[m.crossbar_index] = position
        for crossbar_index, position in last.items():
            self.by_id[crossbar_index].store_binary(
                blocks[block_idx[position]],
                row_permutation=order[position].row_permutation,
            )
        self.block_write_events += len(order)
        return faulty_dense


# --------------------------------------------------------------------------- #
# Hardware environment
# --------------------------------------------------------------------------- #
class HardwareEnvironment:
    """Accelerator state shared by one training run.

    Parameters
    ----------
    config:
        Architecture configuration.
    fault_model:
        Fault model used for pre-deployment injection (and post-deployment
        increments).
    weight_fraction:
        Fraction of the pool reserved for weight storage; the remainder holds
        adjacency blocks.
    fmt:
        Fixed-point format for weights (its ``max_value`` bounds the weight
        explosion magnitude).
    num_crossbars:
        Override the pool size (defaults to the full accelerator).
    """

    def __init__(
        self,
        config: ReRAMConfig = DEFAULT_CONFIG,
        fault_model: Optional[FaultModel] = None,
        weight_fraction: float = 0.5,
        fmt: Optional[FixedPointFormat] = None,
        num_crossbars: Optional[int] = None,
        bist_coverage: float = 1.0,
    ) -> None:
        if not 0.0 < weight_fraction < 1.0:
            raise ValueError(f"weight_fraction must be in (0, 1), got {weight_fraction}")
        self.config = config
        self.fault_model = fault_model
        self.fmt = fmt or FixedPointFormat(
            total_bits=config.weight_bits,
            max_value=4.0,
            bits_per_cell=config.bits_per_cell,
        )
        self.pool = CrossbarPool(
            config=config, fault_model=fault_model, num_crossbars=num_crossbars
        )
        split_point = max(1, min(len(self.pool) - 1, int(len(self.pool) * weight_fraction)))
        self.weight_crossbars, self.adjacency_crossbars = self.pool.split(split_point)
        self.bist = BISTController(config=config, coverage=bist_coverage)

    def overall_fault_density(self) -> float:
        return self.pool.overall_density()

    def inject_post_deployment(self, extra_density: float) -> None:
        self.pool.inject_post_deployment(extra_density)
