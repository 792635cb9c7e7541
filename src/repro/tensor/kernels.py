"""Segment-reduce sparse kernels shared by the tensor/graph/nn layers.

Every sparse numeric hot spot of the GNN forward/backward funnels through
this module:

* :func:`segment_sum` — sum rows of a value array into buckets.  The kernel
  replaces ``np.add.at`` (un-buffered, element-at-a-time) with a sort +
  ``np.add.reduceat`` plan; when the segment ids are already sorted — the
  case for every CSR-driven caller — the sort is skipped entirely.
* :func:`csr_matmat` — CSR × dense matrix product driven by
  ``np.add.reduceat`` over ``indptr`` instead of scatter-adds.
* :func:`csr_transpose` — O(nnz) counting-based CSR transpose (no
  coordinate materialisation round-trip through ``from_coo``).
* :func:`gather_rows` / :func:`csr_row_ids` — row gathers and the
  ``indptr`` → per-entry row-id expansion used by all of the above.
* :func:`edge_softmax` — numerically-stabilised softmax over the edge list
  of a CSR adjacency (segments = destination rows), the primitive behind
  sparse GAT attention.

Equivalence contract: the structural kernels (:func:`csr_transpose` and the
gather plans) are bit-identical to the seed implementations.  The value
reductions are deterministic but *reassociated*: ``np.add.reduceat`` sums
each segment with numpy's pairwise algorithm, whereas the seed
``np.add.at`` accumulated strictly left to right, so results can differ by
floating-point round-off (~1e-15 relative — pairwise is the numerically
tighter of the two).  The stable sort used for unsorted ids still preserves
the in-segment entry order, so the set of values reduced per segment is
identical; equivalence is enforced to tight tolerances by
``tests/test_tensor_kernels.py``.

Call counters accumulate in the process-wide :data:`COUNTERS`.  A training
run reports the change since its ``train()`` began as its ``kernel_*``
counters (``FaultyTrainer._counters``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


# --------------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------------- #
@dataclass
class KernelCounters:
    """Process-wide call/hit counters of the segment-reduce kernel layer."""

    segment_sum_calls: int = 0
    segment_sum_sorted_fast_path: int = 0
    csr_matmat_calls: int = 0
    gather_rows_calls: int = 0
    edge_softmax_calls: int = 0
    transpose_cache_hits: int = 0
    transpose_cache_misses: int = 0
    #: Batched multi-graph kernels (block-diagonal CSR fusion): how many
    #: fused matrices were built, how many member graphs they absorbed, and
    #: the hit/miss split of the trainer-level aggregation precompute cache
    #: (see ``graph.normalize.aggregate_features_cached``).
    batched_block_diag_calls: int = 0
    batched_graphs_fused: int = 0
    batched_agg_cache_hits: int = 0
    batched_agg_cache_misses: int = 0
    #: Fused train-step batching (see ``pipeline.trainer``): reuse hits of
    #: the memoised per-bucket ``SegmentPlan`` + block-diag workspace across
    #: epochs.  The trainer counts the buckets and fused forwards itself.
    segment_plan_cache_hits: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            f"kernel_{name}": float(getattr(self, name))
            for name in self.__dataclass_fields__
        }


#: Module-level counter instance every kernel increments.
COUNTERS = KernelCounters()


# --------------------------------------------------------------------------- #
# Workspace
# --------------------------------------------------------------------------- #
class _Workspace:
    """Grow-only scratch buffer for per-edge intermediates.

    The ``(features, nnz)`` contribution array of a sparse product is the
    single largest allocation of a GNN forward/backward; allocating it fresh
    per call costs more in page faults than the arithmetic does.  The kernel
    layer instead reuses one flat buffer (grown on demand, never shrunk) —
    safe because every kernel finishes with the buffer before returning and
    nothing ever hands out a live view of it.  Not thread-safe, like the
    rest of the training stack.
    """

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.float64)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        needed = rows * cols
        if self._buffer.size < needed:
            self._buffer = np.empty(needed, dtype=np.float64)
        return self._buffer[:needed].reshape(rows, cols)


_WORKSPACE = _Workspace()


# --------------------------------------------------------------------------- #
# Segment reductions
# --------------------------------------------------------------------------- #
def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer ``keys`` in ``[0, bound)``.

    numpy's default argsort of integers is a vectorised quicksort, several
    times faster than its stable merge sort.  The composites ``key * n +
    position`` are distinct, so sorting them with it gives exactly the
    stable order of the keys.  Keys whose composites could overflow int64
    take the merge sort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.size
    if n < 2 or int(bound) * n > 2**63:
        return np.argsort(keys, kind="stable")
    composite = keys * n
    composite += np.arange(n)
    return np.argsort(composite)


def _is_sorted(ids: np.ndarray) -> bool:
    return bool(ids.size <= 1 or np.all(ids[1:] >= ids[:-1]))


def _segment_reduce_2d(
    values: np.ndarray,
    order: "np.ndarray | None",
    starts: np.ndarray,
) -> np.ndarray:
    """Reduce 2-D ``values`` at ``starts`` (after optional ``order`` gather).

    The reduction runs over the *contiguous* axis of a transposed
    ``(features, entries)`` workspace copy: ``np.add.reduceat`` along axis 1
    of a C-contiguous array is several times faster than along axis 0 of
    the natural ``(entries, features)`` layout, and the gather/transpose
    lands in the reused workspace instead of a fresh allocation.
    Returns the reduced block in natural ``(segments, features)`` layout.

    The gathers here and in :func:`csr_matmat` pass ``mode="clip"``: their
    indices are in range by construction (a sort permutation, or the column
    indices a :class:`~repro.graph.sparse.CSRMatrix` validated against the
    dense operand's rows), and with ``out=`` numpy's default
    ``mode="raise"`` gathers into a temporary copy of ``out`` first, which
    doubles the gather's cost.  Clipping never moves an in-range index, so
    the values and their reduction order are unchanged.
    """
    contrib = _WORKSPACE.matrix(values.shape[1], values.shape[0])
    if order is None:
        np.copyto(contrib, values.T)
    else:
        np.take(values.T, order, axis=1, out=contrib, mode="clip")
    return np.add.reduceat(contrib, starts, axis=1).T


@dataclass(frozen=True)
class SegmentPlan:
    """Precomputed sort/reduce plan for repeated :func:`segment_sum` calls.

    Building a plan runs the (O(E log E)) stable argsort once; every
    ``segment_sum`` call that passes it back skips straight to the
    reduction.  The hot consumer is sparse GAT attention, which scatters
    through the same edge-column array once per head per training step —
    the plan lives alongside the memoised edge list.
    """

    num_segments: int
    #: The (int64) segment ids the plan was built from (validated on use).
    ids: np.ndarray
    #: Stable sort permutation, or ``None`` when the ids were already sorted.
    order: Optional[np.ndarray]
    #: First-occurrence positions of each segment in sorted order.
    starts: np.ndarray
    #: Segment id owning each ``starts`` slice (the output rows written).
    out_ids: np.ndarray


def segment_plan(segment_ids: np.ndarray, num_segments: int) -> SegmentPlan:
    """Build the reusable sort/reduce plan for ``segment_ids``."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("segment_ids must be 1-D")
    num_segments = int(num_segments)
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    if _is_sorted(ids):
        order = None
        sorted_ids = ids
    else:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
    if ids.size:
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
        )
        out_ids = sorted_ids[starts]
    else:
        starts = np.zeros(0, dtype=np.int64)
        out_ids = np.zeros(0, dtype=np.int64)
    return SegmentPlan(
        num_segments=num_segments,
        ids=ids,
        order=order,
        starts=starts,
        out_ids=out_ids,
    )


def segment_sum(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: Optional[SegmentPlan] = None,
) -> np.ndarray:
    """``out[i] = sum_{j : segment_ids[j] == i} values[j]`` along axis 0.

    Sorted ``segment_ids`` (the CSR case) skip the argsort; unsorted ids are
    stably sorted first so each segment reduces exactly the values —
    in exactly the order — the seed ``np.add.at`` scatter visited (the
    reduction itself is pairwise, see the module equivalence contract).
    Callers that scatter through the same ids repeatedly can pass a
    :func:`segment_plan` to amortise the sort; the
    ``segment_sum_sorted_fast_path`` counter then counts every call that
    skipped an argsort (sorted ids or plan reuse alike).
    """
    COUNTERS.segment_sum_calls += 1
    values = np.asarray(values, dtype=np.float64)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != values.shape[0]:
        raise ValueError("segment_ids must be 1-D with one entry per value row")
    num_segments = int(num_segments)
    out = np.zeros((num_segments,) + values.shape[1:], dtype=np.float64)
    if ids.size == 0:
        return out
    if plan is not None:
        if plan.num_segments != num_segments or (
            plan.ids is not ids and not np.array_equal(plan.ids, ids)
        ):
            raise ValueError("segment plan does not match this scatter")
        COUNTERS.segment_sum_sorted_fast_path += 1
    else:
        plan = segment_plan(ids, num_segments)
        if plan.order is None:
            COUNTERS.segment_sum_sorted_fast_path += 1
    if values.ndim == 2 and values.shape[1] > 1:
        out[plan.out_ids] = _segment_reduce_2d(values, plan.order, plan.starts)
    else:
        sorted_values = values if plan.order is None else values[plan.order]
        out[plan.out_ids] = np.add.reduceat(sorted_values, plan.starts, axis=0)
    return out


def csr_row_ids(indptr: np.ndarray) -> np.ndarray:
    """Expand a CSR ``indptr`` into the (sorted) per-entry row-id array."""
    indptr = np.asarray(indptr, dtype=np.int64)
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def gather_rows(dense: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row gather ``dense[index]`` (counted so the stats see edge gathers)."""
    COUNTERS.gather_rows_calls += 1
    return np.asarray(dense)[np.asarray(index, dtype=np.int64)]


# --------------------------------------------------------------------------- #
# CSR kernels
# --------------------------------------------------------------------------- #
def csr_matmat(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    dense: np.ndarray,
) -> np.ndarray:
    """CSR × dense product via ``np.add.reduceat`` over ``indptr``.

    ``dense`` must be 2-D ``(cols, k)``; returns ``(rows, k)``.  The per-edge
    contributions are gathered transposed into the shared workspace so the
    reduction runs along the contiguous axis (see :func:`_segment_reduce_2d`).
    Empty rows stay zero: ``reduceat`` is only evaluated at the starts of
    non-empty rows (a start index equal to the next start would otherwise
    re-read a single element instead of producing an empty sum).
    """
    COUNTERS.csr_matmat_calls += 1
    indptr = np.asarray(indptr, dtype=np.int64)
    dense = np.asarray(dense, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    rows = indptr.shape[0] - 1
    out = np.zeros((rows, dense.shape[1]), dtype=np.float64)
    if data.shape[0] == 0:
        return out
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    starts = indptr[nonempty]
    if dense.shape[1] > 1:
        contrib = _WORKSPACE.matrix(dense.shape[1], data.shape[0])
        np.take(dense.T, indices, axis=1, out=contrib, mode="clip")
        contrib *= data
        out[nonempty] = np.add.reduceat(contrib, starts, axis=1).T
    else:
        contrib = data[:, None] * dense[indices]
        out[nonempty] = np.add.reduceat(contrib, starts, axis=0)
    return out


def block_diag_csr(
    parts: "list[Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]]",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int], np.ndarray]:
    """Stack CSR matrices into one block-diagonal CSR.

    ``parts`` is a list of ``(indptr, indices, data, shape)`` tuples; the
    result is ``(indptr, indices, data, shape, row_offsets)`` where
    ``row_offsets[k]`` is the first fused row of part ``k`` (with a final
    sentinel equal to the fused row count), so callers can split per-part
    row slices back out of a fused product.

    Structure contract: rows within a block keep their entry order and no
    row ever gains entries from another block, so per-row segment reductions
    (``csr_matmat``, ``edge_softmax``, row sums) over the fused matrix are
    **bit-identical** per block to running the per-part kernels — the fusion
    only amortises the Python/kernel dispatch over the whole bucket.
    """
    COUNTERS.batched_block_diag_calls += 1
    COUNTERS.batched_graphs_fused += len(parts)
    if not parts:
        raise ValueError("block_diag_csr needs at least one part")
    indptrs = []
    indices_parts = []
    data_parts = []
    row_offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    col_offset = 0
    nnz_offset = 0
    total_cols = 0
    for k, (indptr, indices, data, shape) in enumerate(parts):
        indptr = np.asarray(indptr, dtype=np.int64)
        start = indptr if k == 0 else indptr[1:]
        indptrs.append(start + nnz_offset)
        indices_parts.append(np.asarray(indices, dtype=np.int64) + col_offset)
        data_parts.append(np.asarray(data, dtype=np.float64))
        row_offsets[k + 1] = row_offsets[k] + int(shape[0])
        col_offset += int(shape[1])
        total_cols += int(shape[1])
        nnz_offset += int(indptr[-1])
    fused_indptr = np.concatenate(indptrs)
    fused_indices = np.concatenate(indices_parts)
    fused_data = np.concatenate(data_parts)
    shape = (int(row_offsets[-1]), total_cols)
    return fused_indptr, fused_indices, fused_data, shape, row_offsets


def csr_row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Per-row sums of the stored values (reduceat over ``indptr``)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    out = np.zeros(indptr.shape[0] - 1, dtype=np.float64)
    if data.shape[0] == 0:
        return out
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    out[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return out


def csr_transpose(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transpose a CSR matrix, returning ``(indptr_T, indices_T, data_T)``.

    A stable argsort on the column indices (:func:`stable_argsort`) is
    exactly the ``lexsort((rows, cols))`` the seed ``from_coo`` round-trip
    performed (entries are already row-sorted), so the output arrays are
    bit-identical to the seed transpose — without materialising coordinates
    or re-running the constructor's duplicate handling.
    """
    rows, cols = int(shape[0]), int(shape[1])
    entry_rows = csr_row_ids(indptr)
    order = stable_argsort(indices, cols)
    indices_t = entry_rows[order]
    data_t = np.asarray(data)[order]
    counts = np.bincount(indices, minlength=cols)
    indptr_t = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
    )
    return indptr_t, indices_t, data_t


# --------------------------------------------------------------------------- #
# Edge-wise softmax (sparse attention)
# --------------------------------------------------------------------------- #
def edge_softmax(
    scores: np.ndarray,
    indptr: np.ndarray,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Softmax over CSR edge segments: edges of row ``i`` sum to one.

    ``scores`` is ``(E,)`` or ``(E, H)`` — one score per stored edge, in CSR
    order — and ``indptr`` delimits each destination row's edge slice.  The
    per-row max is subtracted before exponentiation (the same stabilisation
    the dense masked softmax applies), so sparse GAT attention matches the
    dense ``masked_fill`` path to floating-point round-off.  ``row_ids``
    (the :func:`csr_row_ids` expansion of ``indptr``) may be passed to avoid
    recomputing it per call.
    """
    COUNTERS.edge_softmax_calls += 1
    scores = np.asarray(scores, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    if scores.shape[0] != indptr[-1]:
        raise ValueError(
            f"scores has {scores.shape[0]} edges but indptr ends at {indptr[-1]}"
        )
    if scores.shape[0] == 0:
        return np.zeros_like(scores)
    if row_ids is None:
        row_ids = csr_row_ids(indptr)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    starts = indptr[nonempty]
    num_rows = indptr.shape[0] - 1
    trailing = scores.shape[1:]
    row_max = np.zeros((num_rows,) + trailing, dtype=np.float64)
    row_max[nonempty] = np.maximum.reduceat(scores, starts, axis=0)
    shifted = np.exp(scores - row_max[row_ids])
    denom = np.zeros((num_rows,) + trailing, dtype=np.float64)
    denom[nonempty] = np.add.reduceat(shifted, starts, axis=0)
    return shifted / denom[row_ids]


def edge_softmax_backward(
    alpha: np.ndarray,
    grad: np.ndarray,
    indptr: np.ndarray,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of :func:`edge_softmax` w.r.t. the scores.

    ``d e_k = alpha_k * (g_k - sum_{k' in row} g_{k'} alpha_{k'})`` — the
    per-segment analogue of the dense softmax Jacobian-vector product.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if row_ids is None:
        row_ids = csr_row_ids(indptr)
    weighted = grad * alpha
    row_dot = segment_sum(weighted, row_ids, indptr.shape[0] - 1)
    return alpha * (grad - row_dot[row_ids])
