"""Functional operations on :class:`~repro.tensor.tensor.Tensor`.

These cover every operation used by the GNN layers and losses: activations,
(log-)softmax, dropout, sparse-dense matrix products for the aggregation
phase, masked fills for dense attention, edge-wise gathers/softmax for sparse
attention, and concatenation.  The sparse operations delegate their numeric
work to the segment-reduce kernels in :mod:`repro.tensor.kernels`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.tensor import kernels
from repro.tensor.tensor import Tensor, is_grad_enabled
from repro.utils.rng import ensure_rng

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def _wrap(data: np.ndarray, parents, backward_fn, requires_grad: bool) -> Tensor:
    out = Tensor(data, requires_grad=requires_grad, parents=parents)
    out._backward_fn = backward_fn if is_grad_enabled() else None
    return out


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = (x.data > 0).astype(np.float64)
    out_data = x.data * mask

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * mask)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU (used by GAT attention scores)."""
    mask = (x.data > 0).astype(np.float64)
    scale = mask + (1.0 - mask) * negative_slope
    out_data = x.data * scale

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * scale)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit (GAT's output non-linearity)."""
    neg = np.minimum(x.data, 0.0)
    pos_mask = (x.data > 0).astype(np.float64)
    exp_neg = np.exp(neg)
    out_data = x.data * pos_mask + alpha * (exp_neg - 1.0) * (1.0 - pos_mask)

    def _backward() -> None:
        if x.requires_grad:
            local = pos_mask + alpha * exp_neg * (1.0 - pos_mask)
            x._accumulate(out.grad * local)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    out_data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500))),
        np.exp(np.clip(x.data, -500, 500)) / (1.0 + np.exp(np.clip(x.data, -500, 500))),
    )

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * out_data * (1.0 - out_data))

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * (1.0 - out_data**2))

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def exp(x: Tensor) -> Tensor:
    """Element-wise exponential."""
    out_data = np.exp(x.data)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * out_data)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def log(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Element-wise natural logarithm with an epsilon floor."""
    safe = np.maximum(x.data, eps)
    out_data = np.log(safe)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad / safe)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


# --------------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (numerically stabilised)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def _backward() -> None:
        if x.requires_grad:
            dot = (out.grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (out.grad - dot))

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (numerically stabilised)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def _backward() -> None:
        if x.requires_grad:
            summed = out.grad.sum(axis=axis, keepdims=True)
            x._accumulate(out.grad - soft * summed)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


# --------------------------------------------------------------------------- #
# Regularisation
# --------------------------------------------------------------------------- #
def dropout(x: Tensor, p: float, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout with keep-probability ``1 - p``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = ensure_rng(rng)
    mask = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)
    out_data = x.data * mask

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * mask)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Differentiable clamp; gradient is zero outside ``[low, high]``."""
    if low > high:
        raise ValueError(f"low ({low}) must not exceed high ({high})")
    out_data = np.clip(x.data, low, high)
    pass_mask = ((x.data >= low) & (x.data <= high)).astype(np.float64)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * pass_mask)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


# --------------------------------------------------------------------------- #
# Sparse and structured products
# --------------------------------------------------------------------------- #
def spmm(adjacency, x: Tensor) -> Tensor:
    """Sparse (constant) × dense (tensor) product: ``Y = A @ X``.

    ``adjacency`` may be a :class:`repro.graph.sparse.CSRMatrix`, a scipy
    sparse matrix, or a dense numpy array.  The adjacency is treated as a
    constant (no gradient is computed for it), matching the paper where the
    graph structure is data rather than a trainable parameter.

    The backward graph is built lazily: the transpose is only materialised
    inside the backward closure, so evaluation/``no_grad`` forwards (and
    forwards on inputs that do not require gradients) never pay for it.  For
    a :class:`~repro.graph.sparse.CSRMatrix` the first backward populates the
    matrix's memoised ``.T``, so every later batch re-uses it for free.
    """
    is_sparse = hasattr(adjacency, "dot") and hasattr(adjacency, "transpose")
    if is_sparse:
        forward = adjacency.dot(x.data)
    else:
        adjacency = np.asarray(adjacency, dtype=np.float64)
        forward = adjacency @ x.data

    def _backward() -> None:
        if not x.requires_grad:
            return
        if is_sparse:
            # CSRMatrix.transpose() returns the memoised .T, so repeated
            # backwards over the same adjacency build the transpose once.
            x._accumulate(adjacency.transpose().dot(out.grad))
        else:
            x._accumulate(adjacency.T @ out.grad)

    out = _wrap(np.asarray(forward, dtype=np.float64), (x,), _backward, x.requires_grad)
    return out


def outer_constant(scale: np.ndarray, vec: Tensor) -> Tensor:
    """Outer product of a constant column with a tensor row: ``out[i, j] =
    scale[i] * vec[j]``.

    ``scale`` is a constant 1-D array (no gradient); ``vec`` is a 1-D tensor
    (e.g. a bias).  This is the term that lets the batched GCN layer
    reassociate ``A @ (X W + 1 bᵀ)`` into ``(A X) W + (A 1) bᵀ`` so the
    weight-independent aggregation ``A X`` can be precomputed once per
    (adjacency, features) pair — see
    :func:`repro.graph.normalize.aggregate_features_cached`.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if scale.ndim != 1 or vec.data.ndim != 1:
        raise ValueError(
            f"outer_constant expects 1-D inputs, got {scale.shape} and {vec.shape}"
        )
    out_data = scale[:, None] * vec.data[None, :]

    def _backward() -> None:
        if vec.requires_grad:
            vec._accumulate(scale @ out.grad)

    out = _wrap(out_data, (vec,), _backward, vec.requires_grad)
    return out


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Return ``x`` with entries where ``mask`` is True replaced by ``value``.

    Gradient does not flow through the filled positions.  Used to restrict
    dense GAT attention logits to existing edges.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.data.shape:
        raise ValueError(f"mask shape {mask.shape} does not match tensor {x.shape}")
    out_data = np.where(mask, value, x.data)
    keep = (~mask).astype(np.float64)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * keep)

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    requires = any(t.requires_grad for t in tensors)

    def _backward() -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * out_data.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(slicer)])

    out = _wrap(out_data, tuple(tensors), _backward, requires)
    return out


def scatter_add_rows(
    x: Tensor,
    index: np.ndarray,
    num_rows: int,
    plan: Optional["kernels.SegmentPlan"] = None,
) -> Tensor:
    """Sum rows of ``x`` into ``num_rows`` buckets given by ``index``.

    ``out[i] = sum_{j : index[j] == i} x[j]``.  Used for neighbourhood
    aggregation over edge lists (GraphSAGE mean aggregation, sparse GAT)
    and the segmented per-member losses of fused train buckets.  The
    reduction runs through :func:`repro.tensor.kernels.segment_sum`
    (sort + ``reduceat``) instead of the seed's un-buffered ``np.add.at``;
    callers scattering repeatedly through the same index (the per-bucket
    loss segments) can pass a precomputed
    :func:`repro.tensor.kernels.segment_plan` to amortise the sort.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or index.shape[0] != x.data.shape[0]:
        raise ValueError("index must be 1-D with one entry per row of x")
    out_data = kernels.segment_sum(x.data, index, num_rows, plan=plan)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad[index])

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def gather_rows(
    x: Tensor,
    index: np.ndarray,
    scatter_plan: Optional["kernels.SegmentPlan"] = None,
) -> Tensor:
    """Gather rows: ``out[k] = x[index[k]]`` (rows may repeat).

    The backward pass scatter-adds the gradient back through
    :func:`repro.tensor.kernels.segment_sum`, which hits the sorted fast
    path for CSR-ordered edge gathers.  Callers gathering repeatedly
    through the same unsorted index (sparse GAT's edge columns) can pass a
    precomputed :func:`repro.tensor.kernels.segment_plan` so the backward
    sort is amortised.
    """
    index = np.asarray(index, dtype=np.int64)
    out_data = kernels.gather_rows(x.data, index)

    def _backward() -> None:
        if x.requires_grad:
            x._accumulate(
                kernels.segment_sum(
                    out.grad, index, x.data.shape[0], plan=scatter_plan
                )
            )

    out = _wrap(out_data, (x,), _backward, x.requires_grad)
    return out


def edge_softmax(
    scores: Tensor,
    indptr: np.ndarray,
    row_ids: Optional[np.ndarray] = None,
) -> Tensor:
    """Softmax over CSR edge segments (each destination row sums to one).

    ``scores`` holds one logit per stored edge in CSR order (``(E,)`` or
    ``(E, H)``); ``indptr`` delimits the edge slice of every destination
    row.  This is the sparse replacement for the dense
    ``masked_fill`` + ``softmax`` attention path of GAT.  ``row_ids`` may be
    passed to reuse an existing :func:`repro.tensor.kernels.csr_row_ids`
    expansion in both the forward and backward pass.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    alpha = kernels.edge_softmax(scores.data, indptr, row_ids=row_ids)

    def _backward() -> None:
        if scores.requires_grad:
            scores._accumulate(
                kernels.edge_softmax_backward(
                    alpha, out.grad, indptr, row_ids=row_ids
                )
            )

    out = _wrap(alpha, (scores,), _backward, scores.requires_grad)
    return out

