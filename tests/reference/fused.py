"""The generic-op chains the fused autograd nodes replace.

References for the fused nodes of :mod:`repro.tensor.ops` (``linear``,
``gcn_layer``, ``gcn_first_layer``, ``relu_dropout``, ``elu_dropout``) and
the single-node losses of :mod:`repro.nn.losses` (``cross_entropy``,
``bce_with_logits``): each function below records the chain of generic ops
(straight-through add, matmul, broadcast add, spmm, activation, dropout,
log-softmax, gather, mean) that the layer or loss ran before fusion.  The
``*_forward`` functions run a whole GCN, GraphSAGE or GAT forward on those
chains, reading the model's own parameters and weight transform.

A fused node must give the same forward values and the same gradient in
every input and parameter, bit for bit (``tests/test_tensor_fused.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.normalize import aggregate_features_cached, normalize_adjacency_cached
from repro.nn.gat import GAT, GATLayer, attention_edges_cached
from repro.nn.gcn import GCN
from repro.nn.layers import Linear
from repro.nn.losses import _resolve_mask
from repro.nn.sage import GraphSAGE
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------------------- #
# Layer chains
# --------------------------------------------------------------------------- #
def outer_constant(scale: np.ndarray, vec: Tensor) -> Tensor:
    """Outer product of a constant column with a tensor row: ``scale[i] * vec[j]``.

    The bias term of GCN's reassociated first layer ``(A X) W + (A 1) bᵀ``.
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

    out = ops._wrap(out_data, (vec,), _backward, vec.requires_grad)
    return out


def ste_weight(weight: Tensor, effective: Optional[np.ndarray]) -> Tensor:
    """The straight-through weight: ``weight + (effective - weight)``."""
    if effective is None:
        return weight
    return weight + Tensor(effective - weight.data, requires_grad=False)


def linear_chain(
    x: Tensor, weight: Tensor, effective: Optional[np.ndarray], bias: Optional[Tensor]
) -> Tensor:
    out = x @ ste_weight(weight, effective)
    if bias is not None:
        out = out + bias
    return out


def gcn_layer_chain(adjacency, x, weight, effective, bias) -> Tensor:
    return ops.spmm(adjacency, linear_chain(x, weight, effective, bias))


def gcn_first_layer_chain(aggregated, row_sums, weight, effective, bias) -> Tensor:
    out = Tensor(aggregated) @ ste_weight(weight, effective)
    if bias is not None:
        out = out + outer_constant(row_sums, bias)
    return out


def relu_dropout_chain(x: Tensor, p: float, training: bool = True, rng=None) -> Tensor:
    return ops.dropout(ops.relu(x), p, training=training, rng=rng)


def elu_dropout_chain(x: Tensor, p: float, training: bool = True, rng=None) -> Tensor:
    return ops.dropout(ops.elu(x), p, training=training, rng=rng)


# --------------------------------------------------------------------------- #
# Loss chains
# --------------------------------------------------------------------------- #
def cross_entropy_chain(
    logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    mask = _resolve_mask(mask, logits.shape[0])
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return Tensor(0.0)
    log_probs = ops.log_softmax(logits, axis=1)
    picked = log_probs[selected, labels[selected]]
    return -picked.mean()


def bce_with_logits_chain(
    logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    labels = np.asarray(labels, dtype=np.float64)
    mask = _resolve_mask(mask, logits.shape[0])
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return Tensor(0.0)
    picked_logits = logits[selected]
    picked_labels = Tensor(labels[selected])
    probs = ops.sigmoid(picked_logits)
    loss = -(picked_labels * ops.log(probs) + (1.0 - picked_labels) * ops.log(1.0 - probs))
    return loss.mean()


# --------------------------------------------------------------------------- #
# Whole-model forwards on the chains
# --------------------------------------------------------------------------- #
def _linear_module(linear: Linear, x: Tensor) -> Tensor:
    weight = linear.effective_weight(f"{linear.layer_name}.weight", linear.weight)
    out = x @ weight
    if linear.bias is not None:
        out = out + linear.bias
    return out


def gcn_forward(model: GCN, batch, rng=None) -> Tensor:
    adjacency_norm = normalize_adjacency_cached(
        batch.adjacency, self_loops=True, symmetric=True
    )
    rng = ensure_rng(rng) if rng is not None else model._dropout_rng
    x = Tensor(batch.features)
    for index in range(model.num_layers):
        linear = getattr(model, f"layer{index}").linear
        if index == 0 and model._agg_precompute:
            aggregated, row_sums = aggregate_features_cached(
                adjacency_norm, batch.features
            )
            weight = linear.effective_weight(f"{linear.layer_name}.weight", linear.weight)
            x = Tensor(aggregated) @ weight
            if linear.bias is not None:
                x = x + outer_constant(row_sums, linear.bias)
        else:
            x = ops.spmm(adjacency_norm, _linear_module(linear, x))
        if index < model.num_layers - 1:
            x = relu_dropout_chain(x, model.dropout, training=model.training, rng=rng)
    return x


def sage_forward(model: GraphSAGE, batch, rng=None) -> Tensor:
    adjacency_rw = normalize_adjacency_cached(
        batch.adjacency, self_loops=False, symmetric=False
    )
    rng = ensure_rng(rng) if rng is not None else model._dropout_rng
    x = Tensor(batch.features)
    for index in range(model.num_layers):
        layer = getattr(model, f"layer{index}")
        if index == 0 and model._agg_precompute:
            aggregated, _ = aggregate_features_cached(adjacency_rw, batch.features)
            neighbour_mean = Tensor(aggregated)
        else:
            neighbour_mean = ops.spmm(adjacency_rw, x)
        x = _linear_module(layer.self_linear, x) + _linear_module(
            layer.neigh_linear, neighbour_mean
        )
        if index < model.num_layers - 1:
            x = relu_dropout_chain(x, model.dropout, training=model.training, rng=rng)
    return x


def _gat_layer(layer: GATLayer, x: Tensor, adjacency) -> Tensor:
    edges = attention_edges_cached(adjacency)
    indptr, cols, row_ids = edges.indptr, edges.cols, edges.row_ids
    n = indptr.shape[0] - 1
    head_outputs = []
    for head in range(layer.num_heads):
        proj, attn_src, attn_dst = layer._head_weights(head)
        h = _linear_module(proj, x)
        src_scores = h @ attn_src
        dst_scores = h @ attn_dst
        logits = ops.gather_rows(src_scores, row_ids) + ops.gather_rows(
            dst_scores, cols, scatter_plan=edges.cols_plan
        )
        logits = ops.leaky_relu(logits, layer.negative_slope)
        attention = ops.edge_softmax(logits, indptr, row_ids=row_ids)
        messages = attention * ops.gather_rows(h, cols, scatter_plan=edges.cols_plan)
        head_outputs.append(ops.scatter_add_rows(messages, row_ids, n))
    return layer._combine_heads(head_outputs)


def gat_forward(model: GAT, batch, rng=None) -> Tensor:
    rng = ensure_rng(rng) if rng is not None else model._dropout_rng
    x = Tensor(batch.features)
    x = _gat_layer(model.layer0, x, batch.adjacency)
    x = elu_dropout_chain(x, model.dropout, training=model.training, rng=rng)
    return _gat_layer(model.layer1, x, batch.adjacency)


def chain_forward(model, batch, rng=None) -> Tensor:
    """The model's forward with every layer on the generic-op chains."""
    if isinstance(model, GCN):
        return gcn_forward(model, batch, rng)
    if isinstance(model, GraphSAGE):
        return sage_forward(model, batch, rng)
    if isinstance(model, GAT):
        return gat_forward(model, batch, rng)
    raise TypeError(f"no chain forward for {type(model).__name__}")
