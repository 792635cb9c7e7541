"""A from-scratch compressed-sparse-row (CSR) matrix.

Only the operations the GNN aggregation phase and the FARe mapping algorithm
need are implemented, all on top of plain numpy:

* construction from COO triplets or a dense array,
* sparse × dense products (``dot``) and transposition,
* sub-matrix (block) extraction — used to decompose the adjacency matrix into
  crossbar-sized blocks for Algorithm 1,
* row/column sums, scaling, element count, densification.

The matrix is deliberately immutable: every operation returns a new instance,
which keeps fault-injection experiments free of aliasing surprises.  The
numeric kernels (``dot``, ``transpose``, row sums) delegate to the
segment-reduce layer in :mod:`repro.tensor.kernels`, and immutability is what
makes the lazy ``.T`` memo safe: once computed, a transpose can never go
stale, so it is cached on the instance and shared by every consumer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.tensor import kernels
from repro.utils.validation import check_positive_int


class CSRMatrix:
    """Immutable CSR sparse matrix with float64 values."""

    __slots__ = ("indptr", "indices", "data", "shape", "_transpose")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._transpose: Optional["CSRMatrix"] = None
        self._validate()

    def _validate(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.indptr.shape != (rows + 1,):
            raise ValueError(
                f"indptr must have {rows + 1} entries, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr does not start at 0 or end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= cols
        ):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[float],
        shape: Tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from coordinate triplets, summing duplicate coordinates."""
        rows = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64)
        cols = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols, dtype=np.int64)
        values = np.asarray(
            list(values) if not isinstance(values, np.ndarray) else values,
            dtype=np.float64,
        )
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have identical length")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        # One stable sort by the row-major key; duplicates end up adjacent in
        # input order.
        keys = rows * n_cols + cols
        order = kernels.stable_argsort(keys, n_rows * n_cols)
        if sum_duplicates and rows.size:
            keys = keys[order]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            values = np.add.reduceat(values[order], starts)
            rows, cols = np.divmod(keys[starts], n_cols)
        else:
            rows, cols, values = rows[order], cols[order], values[order]
        counts = np.bincount(rows, minlength=n_rows)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(indptr, cols, values, (n_rows, n_cols))

    @classmethod
    def from_dense(cls, dense: np.ndarray, tolerance: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with |value| <= tolerance."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {dense.shape}")
        rows, cols = np.nonzero(np.abs(dense) > tolerance)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n × n identity matrix."""
        n = check_positive_int(n, "n")
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx, np.ones(n), (n, n))

    @classmethod
    def zeros(cls, shape: Tuple[int, int]) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        rows = int(shape[0])
        return cls(
            np.zeros(rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            shape,
        )

    @classmethod
    def block_diag(
        cls, mats: "Iterable[CSRMatrix]"
    ) -> Tuple["CSRMatrix", np.ndarray]:
        """Stack matrices into one block-diagonal matrix.

        Returns ``(fused, row_offsets)`` where ``row_offsets[k]`` is the
        first fused row of member ``k`` (plus a final sentinel), so a fused
        product ``fused @ X`` splits back into the per-member products via
        ``result[row_offsets[k]:row_offsets[k + 1]]``.  Per-row kernels over
        the fused matrix are bit-identical per member to running them
        separately (rows never mix across blocks — see
        :func:`repro.tensor.kernels.block_diag_csr`); the fusion exists to
        run one kernel call per mini-batch *bucket* instead of one per graph.

        Used by both fused eval and fused training forwards
        (``FaultyTrainer`` train mode ``"fused"``); training additionally
        relies on the structure contract in the *backward* direction — the
        transposed fused matrix is block-diagonal too, so gradient rows
        never mix across members either.  Callers fusing the same member
        set repeatedly should memoise the result against their
        invalidation key (the trainer keys on
        ``HardwareStateCache.state_key()``) rather than re-fusing per call.
        """
        parts = [(m.indptr, m.indices, m.data, m.shape) for m in mats]
        indptr, indices, data, shape, row_offsets = kernels.block_diag_csr(parts)
        return cls(indptr, indices, data, shape), row_offsets

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored (structurally non-zero) entries."""
        return int(self.indices.shape[0])

    @property
    def density(self) -> float:
        """Fraction of non-zero entries (the paper's "edge density")."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (column indices, values) of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} out of range for shape {self.shape}")
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def to_dense(self) -> np.ndarray:
        """Return a dense float64 copy."""
        dense = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data)
        )

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("CSRMatrix is not hashable")

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def dot(self, dense: np.ndarray) -> np.ndarray:
        """Sparse × dense product ``self @ dense`` (dense may be 1-D or 2-D)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {dense.shape}"
            )
        single = dense.ndim == 1
        if single:
            dense = dense[:, None]
        out = kernels.csr_matmat(self.indptr, self.indices, self.data, dense)
        return out[:, 0] if single else out

    @property
    def T(self) -> "CSRMatrix":
        """The transposed matrix, computed lazily and memoised.

        Safe because the matrix is immutable: the cached transpose can never
        diverge from ``self``.  The memo is symmetric (``A.T.T is A``), so a
        transpose round-trip allocates nothing.
        """
        if self._transpose is None:
            kernels.COUNTERS.transpose_cache_misses += 1
            indptr_t, indices_t, data_t = kernels.csr_transpose(
                self.indptr, self.indices, self.data, self.shape
            )
            transposed = CSRMatrix(
                indptr_t, indices_t, data_t, (self.shape[1], self.shape[0])
            )
            transposed._transpose = self
            self._transpose = transposed
        else:
            kernels.COUNTERS.transpose_cache_hits += 1
        return self._transpose

    def transpose(self) -> "CSRMatrix":
        """Return the transposed matrix (also in CSR form, memoised)."""
        return self.T

    def scale(self, factor: float) -> "CSRMatrix":
        """Multiply every stored value by ``factor``."""
        return CSRMatrix(self.indptr, self.indices, self.data * factor, self.shape)

    def scale_rows(self, factors: np.ndarray) -> "CSRMatrix":
        """Multiply row ``i`` by ``factors[i]``."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[0],):
            raise ValueError(
                f"factors must have shape ({self.shape[0]},), got {factors.shape}"
            )
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return CSRMatrix(self.indptr, self.indices, self.data * factors[rows], self.shape)

    def scale_cols(self, factors: np.ndarray) -> "CSRMatrix":
        """Multiply column ``j`` by ``factors[j]``."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[1],):
            raise ValueError(
                f"factors must have shape ({self.shape[1]},), got {factors.shape}"
            )
        return CSRMatrix(
            self.indptr, self.indices, self.data * factors[self.indices], self.shape
        )

    def row_sums(self) -> np.ndarray:
        """Sum of stored values per row."""
        return kernels.csr_row_sums(self.indptr, self.data)

    def col_sums(self) -> np.ndarray:
        """Sum of stored values per column."""
        out = np.zeros(self.shape[1], dtype=np.float64)
        if self.nnz:
            np.add.at(out, self.indices, self.data)
        return out

    def add(self, other: "CSRMatrix") -> "CSRMatrix":
        """Element-wise sum of two matrices with identical shape."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        self_rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        other_rows = np.repeat(np.arange(other.shape[0]), np.diff(other.indptr))
        return CSRMatrix.from_coo(
            np.concatenate([self_rows, other_rows]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
            self.shape,
        )

    # ------------------------------------------------------------------ #
    # Structural extraction (used by the FARe mapping algorithm)
    # ------------------------------------------------------------------ #
    def extract_block(
        self, row_start: int, row_stop: int, col_start: int, col_stop: int
    ) -> np.ndarray:
        """Return the dense ``[row_start:row_stop, col_start:col_stop]`` block.

        Blocks are at most crossbar-sized (128 × 128 by default), so returning
        a dense array is both convenient and cheap.
        """
        if not (0 <= row_start <= row_stop <= self.shape[0]):
            raise ValueError(f"invalid row range [{row_start}, {row_stop})")
        if not (0 <= col_start <= col_stop <= self.shape[1]):
            raise ValueError(f"invalid column range [{col_start}, {col_stop})")
        block = np.zeros((row_stop - row_start, col_stop - col_start), dtype=np.float64)
        start, stop = self.indptr[row_start], self.indptr[row_stop]
        cols = self.indices[start:stop]
        vals = self.data[start:stop]
        local_rows = np.repeat(
            np.arange(row_stop - row_start, dtype=np.int64),
            np.diff(self.indptr[row_start : row_stop + 1]),
        )
        mask = (cols >= col_start) & (cols < col_stop)
        block[local_rows[mask], cols[mask] - col_start] = vals[mask]
        return block

    def submatrix(self, node_ids: np.ndarray) -> "CSRMatrix":
        """Return the induced sub-matrix on ``node_ids`` (rows and columns).

        This is the operation that builds a subgraph adjacency for a
        Cluster-GCN batch.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size and (node_ids.min() < 0 or node_ids.max() >= self.shape[0]):
            raise ValueError("node id out of range")
        remap = -np.ones(self.shape[1], dtype=np.int64)
        remap[node_ids] = np.arange(node_ids.size)
        starts = self.indptr[node_ids]
        counts = self.indptr[node_ids + 1] - starts
        total = int(counts.sum())
        if total:
            # Flat positions of every selected row's entries: each row's start
            # repeated, plus a within-row offset ramp.
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            flat = np.repeat(starts, counts) + offsets
            rows = np.repeat(np.arange(node_ids.size, dtype=np.int64), counts)
            local_cols = remap[self.indices[flat]]
            keep = local_cols >= 0
            rows = rows[keep]
            cols = local_cols[keep]
            vals = self.data[flat][keep]
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        return CSRMatrix.from_coo(
            rows, cols, vals, (node_ids.size, node_ids.size), sum_duplicates=False
        )

    def to_binary(self) -> "CSRMatrix":
        """Return the structural (0/1) version of this matrix."""
        return CSRMatrix(self.indptr, self.indices, np.ones_like(self.data), self.shape)

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (rows, cols, values) coordinate arrays."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return rows, self.indices.copy(), self.data.copy()
