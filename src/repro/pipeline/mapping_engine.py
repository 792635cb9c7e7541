"""Mapping GNN data structures onto (faulty) ReRAM crossbars.

Two mappers mirror the two computation phases:

* :class:`WeightCrossbarMapper` — combination phase.  Every 2-D model
  parameter is quantised to 16-bit fixed point, bit-sliced into 2-bit cells
  and tiled over a dedicated set of crossbars.  Reading the weights back
  applies the crossbars' stuck-at faults cell-wise and reassembles the
  (possibly exploded) floating point values.
* :class:`AdjacencyCrossbarMapper` — aggregation phase.  The binary adjacency
  of a mini-batch subgraph is split into crossbar-sized blocks (the
  strategies plan with the lazy :class:`AdjacencyBlocks` views that
  :func:`decompose_adjacency` returns), which are programmed onto the
  crossbars chosen by the active strategy's
  :class:`~repro.core.mapping.BatchMapping` (with the strategy's row
  permutations); the faulty read-back is the adjacency the GNN actually
  aggregates with.

:class:`HardwareEnvironment` bundles the accelerator state shared by both:
the crossbar pool (with injected faults), the BIST controller, the
fixed-point format, and the split of crossbars between weights and adjacency.

Both mappers read back through vectorised paths that the epoch cache in
:mod:`repro.core.hw_state` builds on.  The adjacency read-back works in sparse
coordinates — the stored edges minus those on SA0 cells plus the SA1 cells,
O(nnz + #faults) straight from the batch CSR, with no dense block, grid or
``from_dense``; the weights go through a fused per-code mask application.
The seed per-block program/read loop over dense blocks and the bit-sliced
weight pipeline they replace live in ``tests/reference/hardware.py``; both
fast paths are bit-identical to them (enforced by
``tests/test_core_hw_state.py``).

How these mappers sit between the strategy layer (which plans the mappings)
and the crossbar layer below is documented in ``docs/ARCHITECTURE.md``,
together with the two cache-invalidation protocols that keep the fast paths
honest.  Their work counters (``block_write_events``,
``weight_write_events``) reach ``TrainingResult.counters`` through the
trainer that owns them.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import BatchMapping
from repro.graph.sparse import CSRMatrix
from repro.hardware.config import DEFAULT_CONFIG, ReRAMConfig
from repro.hardware.bist import BISTController
from repro.hardware.crossbar import Crossbar
from repro.hardware.faults import FaultMap, FaultModel
from repro.hardware.quantization import (
    FixedPointFormat,
    codes_to_cells,
    fault_code_masks,
    quantize,
    quantize_faulty_dequantize,
)
from repro.hardware.tile import CrossbarPool
from repro.tensor.module import Module, Parameter
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
        #: The model's parameter behind each layout.
        self.params: Dict[str, Parameter] = {}
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
            self.params[name] = param
        self.crossbars_used = cursor
        self._fault_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._code_masks: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        # Flat (clear, set) masks of a tuple of names under the current fault
        # masks, with the row permutations they were gathered with.
        self._flat_masks: Dict[Tuple[str, ...], Tuple[tuple, np.ndarray, np.ndarray]] = {}
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
        self._flat_masks.clear()
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

        Used by the effective-weight cache on every training-time fetch: the
        hardware re-programs the weights every batch even when the simulator
        serves the faulty view from cache.
        """
        self.weight_write_events += self.layout(name).num_crossbars

    def effective_weights(
        self,
        names: Sequence[str],
        values: np.ndarray,
        row_permutations: Optional[Sequence[Optional[np.ndarray]]] = None,
        count_write: bool = True,
    ) -> np.ndarray:
        """Return the weights the crossbars actually provide to the MVM.

        The precomputed per-code clear/set masks are applied in a single
        integer quantise → fault → dequantise pass (no per-cell
        intermediates).  The pass is elementwise, so each weight reads back
        exactly as it would alone.

        Parameters
        ----------
        names:
            Parameter names (each registered at construction).
        values:
            Their current master (digital) values: each matrix flattened, in
            ``names`` order, concatenated (e.g. the weight slice of a
            :class:`~repro.tensor.module.ParameterArena`).  The result has
            the same flat layout.
        row_permutations:
            Optional storage permutation per name: logical row ``i`` is
            programmed into physical row ``permutation[i]`` (the NR
            baseline's remapping), ``None`` for none.  The result is already
            un-permuted, i.e. the effective values of the *logical* matrices.
        count_write:
            Whether this call represents a re-programming of the weights
            (True during training, False for read-only analyses).
        """
        names = tuple(names)
        layouts = [self.layout(name) for name in names]
        values = np.asarray(values, dtype=np.float64)
        expected = (sum(layout.shape[0] * layout.shape[1] for layout in layouts),)
        if values.shape != expected:
            raise ValueError(
                f"values shape {values.shape} does not match the layouts' {expected}"
            )
        if row_permutations is None:
            row_permutations = (None,) * len(names)
        clear, set_ = self._flat_masks_of(names, tuple(row_permutations))
        result = quantize_faulty_dequantize(values, clear, set_, self.fmt)
        if count_write:
            self.weight_write_events += sum(layout.num_crossbars for layout in layouts)
        return result

    def _flat_masks_of(
        self, names: Tuple[str, ...], permutations: Tuple[Optional[np.ndarray], ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat masks of ``names``, built once per fault version and permutations.

        Strategies hand the same permutation object to every per-batch
        re-programming, so the masks gathered with it are reused while it is
        (by identity) the same; the entry holds it, which keeps ``is``
        sound.
        """
        if len(permutations) != len(names):
            raise ValueError(
                f"{len(permutations)} row permutations for {len(names)} weights"
            )
        cached = self._flat_masks.get(names)
        if cached is not None and all(a is b for a, b in zip(cached[0], permutations)):
            return cached[1], cached[2]
        clears, sets = [], []
        for name, row_permutation in zip(names, permutations):
            clear, set_ = self._code_masks[name]
            if row_permutation is not None:
                permutation = check_permutation(
                    row_permutation, self.layouts[name].shape[0], "row_permutation"
                )
                # Logical row ``i`` sits at physical row ``permutation[i]``,
                # so gathering the per-code masks with the permutation
                # applies the physical faults directly to the logical matrix
                # — no scatter/gather round trip through the stored layout.
                clear, set_ = clear[permutation], set_[permutation]
            clears.append(clear.ravel())
            sets.append(set_.ravel())
        clear, set_ = np.concatenate(clears), np.concatenate(sets)
        self._flat_masks[names] = (permutations, clear, set_)
        return clear, set_


# --------------------------------------------------------------------------- #
# Adjacency mapping
# --------------------------------------------------------------------------- #
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


class AdjacencyBlocks(abc.Sequence):
    """One batch adjacency as a read-only sequence of crossbar-sized blocks.

    ``view[k]`` is block ``k`` in row-major block order: a fresh
    ``rows × cols`` float64 0/1 array, zero-padded on the right/bottom edge,
    built from the batch CSR when it is read.  ``grid`` is ``(row_blocks,
    col_blocks)``.  Slicing returns a list of blocks.

    The first read sorts the stored entries once by (block, local cell),
    stably, and keeps the last duplicate of each cell and only ``data > 0``
    (the rules :meth:`AdjacencyCrossbarMapper.apply_mapping` uses); what
    stays is one int32 cell index per stored edge plus per-block bounds,
    O(nnz), so a view per batch can be kept for the whole run at any graph
    size.  The dense decomposition it replaces lives in
    ``tests/reference/hardware.py``; the blocks are bit-identical to it.
    """

    def __init__(self, adjacency: CSRMatrix, rows: int, cols: int) -> None:
        n, m = adjacency.shape
        self.rows = rows
        self.cols = cols
        self.grid = (max(1, -(-n // rows)), max(1, -(-m // cols)))
        self._adjacency: Optional[CSRMatrix] = adjacency
        self._cells = np.zeros(0, dtype=np.int32)
        self._bounds = np.zeros(len(self) + 1, dtype=np.int64)

    def __len__(self) -> int:
        return self.grid[0] * self.grid[1]

    def _layout(self) -> None:
        adjacency, self._adjacency = self._adjacency, None
        rows, cols = self.rows, self.cols
        entry_rows = np.repeat(
            np.arange(adjacency.shape[0], dtype=np.int64), np.diff(adjacency.indptr)
        )
        block_r, local_r = np.divmod(entry_rows, rows)
        block_c, local_c = np.divmod(adjacency.indices, cols)
        keys = (block_r * self.grid[1] + block_c) * (rows * cols)
        keys += local_r * cols + local_c
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.ones(keys.size, dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        block, cell = np.divmod(keys[last & (adjacency.data[order] > 0)], rows * cols)
        self._cells = cell.astype(np.int32)
        self._bounds[1:] = np.cumsum(np.bincount(block, minlength=len(self)))

    def cell_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cells, bounds)``: block ``k``'s ones are ``cells[bounds[k]:bounds[k + 1]]``.

        Cells are flat ``local_row * cols + local_col`` indices, ascending
        within a block.  The arrays are the view's own (do not modify them);
        :func:`repro.core.mapping.sequential_plans` counts the fault-unaware
        plan's costs from them without building a block.
        """
        if self._adjacency is not None:
            self._layout()
        return self._cells, self._bounds

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"block index {index} out of range for {len(self)} blocks")
        cells, bounds = self.cell_layout()
        block = np.zeros(self.rows * self.cols, dtype=np.float64)
        block[cells[bounds[k] : bounds[k + 1]]] = 1.0
        return block.reshape(self.rows, self.cols)


def decompose_adjacency(
    adjacency: CSRMatrix, rows: int, cols: int
) -> Tuple[AdjacencyBlocks, Tuple[int, int]]:
    """Split a (binary) adjacency into ``rows × cols`` blocks.

    Returns ``(view, (row_blocks, col_blocks))``: an :class:`AdjacencyBlocks`
    that builds each zero-padded block in row-major order when it is read.
    A free function (rather than only a mapper method) so the sweep engine
    can compute the decomposition once per ``(graph, geometry)`` and share it
    across every run of a grid.
    """
    view = AdjacencyBlocks(adjacency, rows, cols)
    return view, view.grid


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
    def decompose(self, adjacency: CSRMatrix) -> Tuple[AdjacencyBlocks, Tuple[int, int]]:
        """Split a (binary) adjacency into crossbar-sized blocks.

        Returns ``(view, (row_blocks, col_blocks))``; see
        :func:`decompose_adjacency`.
        """
        return decompose_adjacency(
            adjacency, self.config.crossbar_rows, self.config.crossbar_cols
        )

    def apply_mapping(self, adjacency: CSRMatrix, mapping: BatchMapping) -> CSRMatrix:
        """Program the batch per ``mapping`` and return the faulty adjacency.

        The returned matrix is the structural adjacency the aggregation phase
        actually uses: SA1 cells appear as spurious edges, SA0 cells delete
        stored edges.

        The stuck-at model is binary, so the read-back works in sparse
        coordinates, O(nnz + #faults) with no dense block: the stored edges
        (``data > 0``, last duplicate wins, as in :func:`decompose_adjacency`)
        minus those whose permuted cell is SA0, plus every SA1 cell of each
        block's crossbar mapped back through the inverse row permutation,
        clipped to the logical ``n × m`` area, diagonal dropped.  Crossbar
        state is updated from the same coordinates and ends exactly where one
        ``program_binary``/``read_binary`` round trip per block leaves it:
        endurance counters advance by the per-crossbar block count and each
        crossbar stores the last block programmed onto it.
        """
        rows = self.config.crossbar_rows
        cols = self.config.crossbar_cols
        n, m = adjacency.shape
        col_blocks = max(1, -(-m // cols))
        num_blocks = max(1, -(-n // rows)) * col_blocks
        order = mapping.blocks
        block_idx = np.array([b.block_index for b in order], dtype=np.int64)
        if len(order) != num_blocks or not np.array_equal(
            np.sort(block_idx), np.arange(num_blocks)
        ):
            raise ValueError(
                f"mapping must place each of the adjacency's {num_blocks} blocks "
                f"exactly once, got {len(order)} entries"
            )
        perms = np.array([b.row_permutation for b in order], dtype=np.int64)
        if perms.shape != (num_blocks, rows) or np.any(
            np.sort(perms, axis=1) != np.arange(rows)
        ):
            raise ValueError(f"row_permutation must be a permutation of 0..{rows - 1}")
        inverse = np.empty_like(perms)
        inverse[np.arange(num_blocks)[:, None], perms] = np.arange(rows)
        slot: Dict[int, int] = {}
        owner = np.array(
            [slot.setdefault(b.crossbar_index, len(slot)) for b in order],
            dtype=np.int64,
        )
        targets = [self.by_id[index] for index in slot]
        position = np.empty(num_blocks, dtype=np.int64)
        position[block_idx] = np.arange(num_blocks)

        # Stored edges and the block position / local cell each lands on.
        keys = np.repeat(np.arange(n, dtype=np.int64) * m, np.diff(adjacency.indptr))
        keys += adjacency.indices
        data = adjacency.data
        if np.any(keys[1:] <= keys[:-1]):  # unsorted or duplicate entries
            by_key = np.argsort(keys, kind="stable")
            keys = keys[by_key]
            last_of_key = np.append(keys[1:] != keys[:-1], True)
            keys, data = keys[last_of_key], data[by_key][last_of_key]
        keys = keys[data > 0]
        r, c = np.divmod(keys, max(m, 1))
        block_r, local_r = np.divmod(r, rows)
        block_c, local_c = np.divmod(c, cols)
        pos = position[block_r * col_blocks + block_c]
        edge_owner, physical_r = owner[pos], perms[pos, local_r]
        sa0 = np.stack([x.fault_map.sa0 for x in targets])
        sa1 = np.stack([x.fault_map.sa1 for x in targets])
        # Edges on healthy cells survive; SA1 cells are all added below, so
        # the two key sets are disjoint.
        cell = (edge_owner, physical_r, local_c)
        kept = keys[~(sa0[cell] | sa1[cell]) & (r != c)]

        # Every SA1 cell of every block's crossbar, in logical coordinates:
        # block position ``at`` reads its owner's SA1 list from ``first``.
        sa1_owner, sa1_cell = np.divmod(np.flatnonzero(sa1), rows * cols)
        per_owner = np.bincount(sa1_owner, minlength=len(targets))
        first = np.cumsum(per_owner) - per_owner
        counts = per_owner[owner]
        at = np.repeat(np.arange(num_blocks), counts)
        start = np.cumsum(counts) - counts
        src = np.arange(at.size) + np.repeat(first[owner] - start, counts)
        sa1_r, sa1_c = np.divmod(sa1_cell[src], cols)
        sa1_block_r, sa1_block_c = np.divmod(block_idx[at], col_blocks)
        r1 = sa1_block_r * rows + inverse[at, sa1_r]
        c1 = sa1_block_c * cols + sa1_c
        inside = (r1 < n) & (c1 < m) & (r1 != c1)
        faulty = np.sort(np.concatenate((kept, r1[inside] * m + c1[inside])))

        for crossbar, count in self.writes_per_crossbar(mapping):
            crossbar.record_simulated_writes(count)
        # Each crossbar ends up storing the last block programmed onto it,
        # placed in physical row order.
        last = np.zeros(len(targets), dtype=np.int64)
        np.maximum.at(last, owner, np.arange(num_blocks))
        mine = last[edge_owner] == pos
        stored = np.zeros((len(targets), rows, cols), dtype=bool)
        stored[edge_owner[mine], physical_r[mine], local_c[mine]] = True
        for index, crossbar in enumerate(targets):
            crossbar.store_binary(stored[index])
        self.block_write_events += num_blocks

        out_r, out_c = np.divmod(faulty, max(m, 1))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(out_r, minlength=n))))
        return CSRMatrix(indptr, out_c, np.ones(faulty.size), (n, m))


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
        self.bist = BISTController(config=config)

    def overall_fault_density(self) -> float:
        return self.pool.overall_density()

    def inject_post_deployment(self, extra_density: float) -> None:
        self.pool.inject_post_deployment(extra_density)
