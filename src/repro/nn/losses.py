"""Training losses: masked cross-entropy and BCE-with-logits.

Both losses accept an optional boolean node mask so Cluster-GCN batches can be
trained on their training nodes only (validation/test nodes inside a batch do
not contribute gradient).  Each is one autograd node that evaluates the same
numpy expressions, forward and backward, as the chain of generic ops it
replaces (``tests/reference/fused.py``), so values and gradients are
bit-identical to it.

The ``*_segmented`` variants compute one loss value **per bucket member** of a
fused block-diagonal training forward (``FaultyTrainer`` train mode
``"fused"``): the masked rows of every member are reduced with that member's
own mean-reduction weight, so the gradient reaching each logit row is exactly
the gradient the per-member reference loss would produce (the per-row scale
``-1/count_k`` resp. ``1/(count_k·num_labels)`` is computed identically —
structural, bit-identical).  Only the member loss *values* go through a
``segment_sum``/``reduceat`` whose summation order differs from ``np.sum``
(round-off contract; see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.tensor import kernels, ops
from repro.tensor.tensor import Tensor

#: ``ops.log``'s floor on its argument.
_LOG_EPS = 1e-12


def _resolve_mask(mask: Optional[np.ndarray], num_rows: int) -> np.ndarray:
    if mask is None:
        return np.ones(num_rows, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (num_rows,):
        raise ValueError(f"mask must have shape ({num_rows},), got {mask.shape}")
    return mask


def cross_entropy(
    logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Mean cross-entropy over masked rows for single-label classification.

    Parameters
    ----------
    logits:
        ``(num_nodes, num_classes)`` unnormalised scores.
    labels:
        ``(num_nodes,)`` integer class labels.
    mask:
        Optional boolean mask selecting the rows that contribute to the loss.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels must have shape ({logits.shape[0]},), got {labels.shape}"
        )
    mask = _resolve_mask(mask, logits.shape[0])
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return Tensor(0.0)
    picked_labels = labels[selected]
    log_probs = ops.log_softmax_values(logits.data, axis=1)
    inv_count = 1.0 / selected.size
    value = -(log_probs[selected, picked_labels].sum() * inv_count)

    def _backward() -> None:
        # The chain's backward: the mean's -g/k scattered onto the picked
        # log-probabilities, then log-softmax's ``G - soft * G.sum(axis=1)``;
        # each selected row of G holds exactly one value, its row sum.
        picked_grad = np.zeros_like(log_probs)
        picked_grad[selected, picked_labels] += -out.grad * inv_count
        summed = np.zeros((log_probs.shape[0], 1))
        summed[selected, 0] = picked_grad[selected, picked_labels]
        logits._accumulate_owned(picked_grad - np.exp(log_probs) * summed)

    out = ops._wrap(value, (logits,), _backward, logits.requires_grad)
    return out


def bce_with_logits(
    logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Mean binary cross-entropy with logits for multi-label classification.

    Parameters
    ----------
    logits:
        ``(num_nodes, num_labels)`` unnormalised scores.
    labels:
        ``(num_nodes, num_labels)`` binary targets.
    mask:
        Optional boolean node mask.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ValueError(
            f"logits shape {logits.shape} must equal labels shape {labels.shape}"
        )
    mask = _resolve_mask(mask, logits.shape[0])
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return Tensor(0.0)
    picked = logits.data[selected]
    picked_labels = labels[selected]
    probs = ops.sigmoid_values(picked)
    safe_probs = np.maximum(probs, _LOG_EPS)
    safe_complement = np.maximum(1.0 + (-probs), _LOG_EPS)
    complement_labels = 1.0 + (-picked_labels)
    elementwise = -(
        picked_labels * np.log(safe_probs)
        + complement_labels * np.log(safe_complement)
    )
    inv_count = 1.0 / elementwise.size
    value = elementwise.sum() * inv_count

    def _backward() -> None:
        # The chain's backward: the mean's g/size, negated, through the two
        # log terms into the probabilities (two contributions, order-free),
        # through the sigmoid, scattered back onto the selected rows.
        neg_scale = -(out.grad * inv_count)
        grad_probs = -((neg_scale * complement_labels) / safe_complement) + (
            (neg_scale * picked_labels) / safe_probs
        )
        logits_grad = np.zeros_like(logits.data)
        logits_grad[selected] += grad_probs * probs * (1.0 - probs)
        logits._accumulate_owned(logits_grad)

    out = ops._wrap(value, (logits,), _backward, logits.requires_grad)
    return out


def cross_entropy_segmented(
    logits: Tensor,
    labels: np.ndarray,
    selected: np.ndarray,
    member_ids: np.ndarray,
    counts: np.ndarray,
    plan: Optional["kernels.SegmentPlan"] = None,
) -> Tuple[Tensor, List[float]]:
    """Per-member masked cross-entropy over one fused train bucket.

    Parameters
    ----------
    logits:
        ``(fused_rows, num_classes)`` scores of the block-diagonal forward.
    labels:
        ``(fused_rows,)`` integer labels (member labels concatenated).
    selected:
        Fused-row indices of the train-masked rows, in member order.
    member_ids:
        ``(len(selected),)`` bucket-member index per selected row (sorted).
    counts:
        ``(num_members,)`` selected-row count per member.
    plan:
        Optional precomputed :func:`repro.tensor.kernels.segment_plan` for
        ``member_ids`` (the trainer memoises it per bucket).

    Returns ``(total, member_losses)`` where ``total`` is the sum of the
    per-member mean losses (the tensor to ``backward()``) and
    ``member_losses`` lists each member's loss value — what the reference
    ``cross_entropy`` would have returned per member, up to ``reduceat``
    round-off.  A member with no selected rows contributes exactly ``0.0``
    to both (matching the reference's ``Tensor(0.0)`` early-out).
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    log_probs = ops.log_softmax(logits, axis=1)
    picked = log_probs[selected, labels[selected]]
    seg = ops.scatter_add_rows(picked, member_ids, counts.shape[0], plan=plan)
    # -1/count_k is the exact per-row gradient of the reference
    # ``-picked.mean()`` (1.0/count then negate — same bits); empty members
    # get weight 0 so neither value nor gradient flows.
    neg_inv = np.where(counts > 0, -1.0 / np.maximum(counts, 1), 0.0)
    member_losses = seg * Tensor(neg_inv)
    return member_losses.sum(), [float(v) for v in member_losses.data]


def bce_with_logits_segmented(
    logits: Tensor,
    labels: np.ndarray,
    selected: np.ndarray,
    member_ids: np.ndarray,
    counts: np.ndarray,
    plan: Optional["kernels.SegmentPlan"] = None,
) -> Tuple[Tensor, List[float]]:
    """Per-member masked BCE-with-logits over one fused train bucket.

    Same contract as :func:`cross_entropy_segmented`, for multi-label
    targets: ``labels`` is ``(fused_rows, num_labels)`` and each member's
    loss is the mean over its ``count_k × num_labels`` selected elements,
    with the per-element gradient ``1/(count_k·num_labels)`` computed
    exactly as the reference ``loss.mean()`` would.
    """
    labels = np.asarray(labels, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    picked_logits = logits[selected]
    picked_labels = Tensor(labels[selected])
    probs = ops.sigmoid(picked_logits)
    loss = -(picked_labels * ops.log(probs) + (1.0 - picked_labels) * ops.log(1.0 - probs))
    seg = ops.scatter_add_rows(loss, member_ids, counts.shape[0], plan=plan)
    num_labels = int(logits.shape[1])
    inv = np.where(
        counts > 0, 1.0 / np.maximum(counts * num_labels, 1), 0.0
    )
    member_losses = seg.sum(axis=1) * Tensor(inv)
    return member_losses.sum(), [float(v) for v in member_losses.data]
