"""Crossbar storage model.

A :class:`Crossbar` stores either a binary adjacency block or a slice of a
quantised weight matrix, tracks how many times each cell has been written
(endurance accounting), and returns the *faulty* view of its contents when
read — SA0 cells read as the minimum cell value and SA1 cells as the maximum,
regardless of what was programmed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hardware.faults import FaultMap, apply_faults_to_cells
from repro.utils.validation import check_permutation, check_positive_int


class Crossbar:
    """A single ReRAM crossbar array.

    Parameters
    ----------
    crossbar_id:
        Stable identifier within the accelerator (used by mapping algorithms).
    rows, cols:
        Physical dimensions (128 × 128 in the paper's tile).
    cell_levels:
        Number of conductance levels per cell (4 for 2-bit cells).
    fault_map:
        Stuck-at-fault map; defaults to fault-free.
    """

    def __init__(
        self,
        crossbar_id: int,
        rows: int = 128,
        cols: int = 128,
        cell_levels: int = 4,
        fault_map: Optional[FaultMap] = None,
    ) -> None:
        self.crossbar_id = int(crossbar_id)
        self.rows = check_positive_int(rows, "rows")
        self.cols = check_positive_int(cols, "cols")
        self.cell_levels = check_positive_int(cell_levels, "cell_levels")
        self.fault_map = fault_map if fault_map is not None else FaultMap.empty(rows, cols)
        if self.fault_map.shape != (rows, cols):
            raise ValueError(
                f"fault map shape {self.fault_map.shape} does not match crossbar "
                f"({rows}, {cols})"
            )
        self._stored = np.zeros((rows, cols), dtype=np.int64)
        self.write_counts = np.zeros((rows, cols), dtype=np.int64)
        self.total_writes = 0
        #: Monotonic counter bumped whenever the fault map is replaced; any
        #: cached derivation of this crossbar's faulty read-back keys on it.
        self.fault_epoch = 0

    def __repr__(self) -> str:
        return (
            f"Crossbar(id={self.crossbar_id}, shape=({self.rows}, {self.cols}), "
            f"faults={self.fault_map.num_faults}, writes={self.total_writes})"
        )

    # ------------------------------------------------------------------ #
    # Fault management
    # ------------------------------------------------------------------ #
    def set_fault_map(self, fault_map: FaultMap) -> None:
        """Replace the crossbar's fault map (e.g. after post-deployment faults)."""
        if fault_map.shape != (self.rows, self.cols):
            raise ValueError(
                f"fault map shape {fault_map.shape} does not match crossbar "
                f"({self.rows}, {self.cols})"
            )
        self.fault_map = fault_map
        self.fault_epoch += 1

    # ------------------------------------------------------------------ #
    # Programming / reading
    # ------------------------------------------------------------------ #
    def _check_region(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got {values.ndim}-D")
        if values.shape[0] > self.rows or values.shape[1] > self.cols:
            raise ValueError(
                f"values of shape {values.shape} do not fit in crossbar "
                f"({self.rows}, {self.cols})"
            )
        return values

    def program(self, values: np.ndarray, row_offset: int = 0, col_offset: int = 0) -> None:
        """Write integer cell values into the crossbar (write counts increase).

        Values exceeding ``cell_levels - 1`` are clipped by the write driver.
        """
        values = self._check_region(values)
        rows, cols = values.shape
        r0, c0 = int(row_offset), int(col_offset)
        if r0 + rows > self.rows or c0 + cols > self.cols:
            raise ValueError("programmed region exceeds crossbar bounds")
        clipped = np.clip(values.astype(np.int64), 0, self.cell_levels - 1)
        self._stored[r0 : r0 + rows, c0 : c0 + cols] = clipped
        self.write_counts[r0 : r0 + rows, c0 : c0 + cols] += 1
        self.total_writes += 1

    def read(self) -> np.ndarray:
        """Read the full crossbar content with faults applied."""
        return apply_faults_to_cells(
            self._stored, self.fault_map.sa0, self.fault_map.sa1, self.cell_levels
        )

    def read_ideal(self) -> np.ndarray:
        """Read the stored values ignoring faults (for analysis/tests only)."""
        return self._stored.copy()

    # ------------------------------------------------------------------ #
    # Binary (adjacency) convenience API
    # ------------------------------------------------------------------ #
    def program_binary(
        self, block: np.ndarray, row_permutation: Optional[np.ndarray] = None
    ) -> None:
        """Program a binary adjacency block, optionally permuting its rows.

        ``row_permutation[i]`` gives the crossbar row that logical block row
        ``i`` is written to (the FARe row-permutation output).  The block must
        exactly fill the crossbar.
        """
        self.store_binary(block, row_permutation=row_permutation)
        # Full-array write: same accounting as program() over the whole
        # crossbar (the binary values never need the write driver's clip).
        self.write_counts += 1
        self.total_writes += 1

    def store_binary(
        self, block: np.ndarray, row_permutation: Optional[np.ndarray] = None
    ) -> None:
        """Set the stored contents exactly like :meth:`program_binary`, but
        without any write accounting.

        The batched read-back path uses this together with
        :meth:`record_simulated_writes`: the block contents land in one bulk
        assignment per crossbar while the endurance counters advance by the
        full number of simulated per-batch writes.  :meth:`program_binary`
        delegates here, so the two paths cannot drift apart.
        """
        block = np.asarray(block)
        if block.shape != (self.rows, self.cols):
            raise ValueError(
                f"binary block shape {block.shape} must equal crossbar shape "
                f"({self.rows}, {self.cols})"
            )
        binary = (block > 0).astype(np.int64) * (self.cell_levels - 1)
        if row_permutation is not None:
            row_permutation = check_permutation(
                row_permutation, self.rows, "row_permutation"
            )
            placed = np.zeros_like(binary)
            placed[row_permutation] = binary
            binary = placed
        self._stored[:, :] = binary

    def read_binary(self, row_permutation: Optional[np.ndarray] = None) -> np.ndarray:
        """Read back a binary block (faults applied), undoing a row permutation."""
        read = self.read()
        binary = (read >= (self.cell_levels / 2.0)).astype(np.float64)
        if row_permutation is not None:
            row_permutation = np.asarray(row_permutation, dtype=np.int64)
            binary = binary[row_permutation]
        return binary

    # ------------------------------------------------------------------ #
    # Endurance accounting
    # ------------------------------------------------------------------ #
    def record_simulated_writes(self, count: int) -> None:
        """Account ``count`` full-array writes without touching stored data.

        The epoch-cached read-back serves repeated batches from cache, but the
        *simulated hardware* still re-programs its blocks every batch — the
        endurance counters (which feed the Fig. 7 timing model and the
        endurance analyses) must advance exactly as if each write happened.
        """
        # Hot path (called per crossbar per cache hit): plain int coercion
        # instead of the ABC-backed check_non_negative_int.
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count:
            self.write_counts += count
            self.total_writes += count

    @property
    def max_cell_writes(self) -> int:
        """Largest write count over all cells (endurance wear indicator)."""
        return int(self.write_counts.max()) if self.write_counts.size else 0
