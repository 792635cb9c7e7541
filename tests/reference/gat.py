"""Dense ``N × N`` masked attention (reference for the sparse edge-wise GAT)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.base import BatchInputs
from repro.nn.gat import GAT, GATLayer
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import ensure_rng

_NEG_INF = -1e9


def dense_attention(layer: GATLayer, x: Tensor, adjacency_mask: np.ndarray) -> Tensor:
    """``layer``'s attention over a dense boolean mask (self loops added)."""
    n = adjacency_mask.shape[0]
    if adjacency_mask.shape != (n, n):
        raise ValueError("adjacency_mask must be square")
    allowed = adjacency_mask.astype(bool) | np.eye(n, dtype=bool)
    head_outputs = []
    for head in range(layer.num_heads):
        proj, attn_src, attn_dst = layer._head_weights(head)
        h = proj(x)
        src_scores = h @ attn_src  # (n, 1)
        dst_scores = h @ attn_dst  # (n, 1)
        logits = src_scores + dst_scores.transpose()
        logits = ops.leaky_relu(logits, layer.negative_slope)
        logits = ops.masked_fill(logits, ~allowed, _NEG_INF)
        attention = ops.softmax(logits, axis=1)
        head_outputs.append(attention @ h)
    return layer._combine_heads(head_outputs)


class DenseGAT(GAT):
    """:class:`GAT` with dense masked attention in both layers."""

    def forward(self, batch: BatchInputs, rng: Optional[object] = None) -> Tensor:
        mask = batch.adjacency.to_dense() > 0
        rng = ensure_rng(rng) if rng is not None else self._dropout_rng
        x = dense_attention(self.layer0, Tensor(batch.features), mask)
        x = ops.elu(x)
        x = ops.dropout(x, self.dropout, training=self.training, rng=rng)
        return dense_attention(self.layer1, x, mask)
