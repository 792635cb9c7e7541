"""Graph Attention Network (Veličković et al., 2018).

Attention is *sparse and edge-wise*: attention logits are computed per
stored edge of the (possibly fault-corrupted) binary adjacency, normalised
with a segment softmax over each destination row
(:func:`repro.tensor.ops.edge_softmax`) and aggregated with a segment
scatter-add.  Work and memory are therefore O(E) instead of the O(N²) of the
seed's dense ``masked_fill`` attention, which opens large-graph GAT workloads
the dense formulation cannot reach.

The dense formulation lives in ``tests/reference/gat.py`` and the two are
equivalence-tested (``tests/test_nn_gat_sparse.py``): the edge list is
exactly the support of the dense mask — the corrupted adjacency's stored
positive entries plus self loops — and the per-row max-shift/softmax
arithmetic matches the dense masked softmax to floating-point round-off.

Fault semantics are unchanged: the edge list is derived from the binary
adjacency *as read back from the crossbars*, so a stuck-at-1 fault inserts an
edge (the layer attends to a non-neighbour) and a stuck-at-0 fault removes a
real edge, exactly the aggregation-phase failure mode Fig. 1(b) of the paper
describes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.sparse import CSRMatrix
from repro.nn.base import BatchInputs, GNNModel
from repro.nn.layers import Linear
from repro.tensor import init, kernels, ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import ensure_rng, spawn_rngs


# --------------------------------------------------------------------------- #
# Attention edge lists
# --------------------------------------------------------------------------- #
def attention_edges(adjacency: CSRMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(indptr, cols)`` of the attention support of ``adjacency``.

    The support is the set of (row, col) pairs the dense path allows:
    coordinates whose value is positive (the corrupted binary adjacency's
    edges — matching the dense ``to_dense() > 0`` mask, including its
    last-wins resolution of duplicate stored coordinates) plus all self
    loops, deduplicated and in row-major order.
    """
    n = adjacency.shape[0]
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    rows = kernels.csr_row_ids(adjacency.indptr)
    keys = rows * n + adjacency.indices
    # Duplicate coordinates are legal (from_coo(sum_duplicates=False)); the
    # dense mask sees the *last* stored value per coordinate, so resolve
    # duplicates the same way before thresholding.
    unique_keys, reversed_first = np.unique(keys[::-1], return_index=True)
    last_occurrence = keys.size - 1 - reversed_first
    keep = adjacency.data[last_occurrence] > 0
    loops = np.arange(n, dtype=np.int64)
    keys = np.unique(np.concatenate((unique_keys[keep], loops * n + loops)))
    rows, cols = keys // n, keys % n
    indptr = np.concatenate(
        (
            np.zeros(1, dtype=np.int64),
            np.cumsum(np.bincount(rows, minlength=n), dtype=np.int64),
        )
    )
    return indptr, cols.astype(np.int64)


@dataclass(frozen=True)
class AttentionEdges:
    """Attention support of one adjacency, with its reusable kernel plans.

    Built once per adjacency object and shared by every head, layer and
    training step: ``row_ids`` is the per-edge destination-row expansion
    (reused by the gathers, the edge softmax and the final scatter) and
    ``cols_plan`` amortises the stable argsort the column-gather backward
    would otherwise re-run per head per step.
    """

    indptr: np.ndarray
    cols: np.ndarray
    row_ids: np.ndarray
    cols_plan: kernels.SegmentPlan


#: Identity-keyed LRU memo of attention edge structures, mirroring
#: ``graph/normalize.py``: the epoch-cached hardware read-back hands the same
#: immutable adjacency object back per batch until the hardware state
#: changes, so the per-forward edge-list construction collapses to a dict
#: hit.  Entries pin the keyed matrix so its ``id()`` cannot be recycled; the
#: ``is`` check makes a stale hit impossible either way.
_EDGE_CACHE: "OrderedDict[int, Tuple[CSRMatrix, AttentionEdges]]" = OrderedDict()
_EDGE_CACHE_SIZE = 64


def attention_edges_cached(adjacency: CSRMatrix) -> AttentionEdges:
    """Memoised :func:`attention_edges` + kernel plans, keyed on identity."""
    key = id(adjacency)
    hit = _EDGE_CACHE.get(key)
    if hit is not None and hit[0] is adjacency:
        _EDGE_CACHE.move_to_end(key)
        return hit[1]
    indptr, cols = attention_edges(adjacency)
    edges = AttentionEdges(
        indptr=indptr,
        cols=cols,
        row_ids=kernels.csr_row_ids(indptr),
        cols_plan=kernels.segment_plan(cols, adjacency.shape[0]),
    )
    _EDGE_CACHE[key] = (adjacency, edges)
    _EDGE_CACHE.move_to_end(key)
    while len(_EDGE_CACHE) > _EDGE_CACHE_SIZE:
        _EDGE_CACHE.popitem(last=False)
    return edges


class GATLayer(GNNModel):
    """Multi-head graph attention layer (sparse edge-wise attention)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int = 2,
        concat_heads: bool = True,
        negative_slope: float = 0.2,
        name: str = "gat",
        rng=None,
    ) -> None:
        super().__init__()
        if num_heads <= 0:
            raise ValueError(f"num_heads must be positive, got {num_heads}")
        if concat_heads and out_features % num_heads != 0:
            raise ValueError(
                f"out_features ({out_features}) must be divisible by num_heads "
                f"({num_heads}) when concatenating"
            )
        self.num_heads = num_heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        self.head_features = (
            out_features // num_heads if concat_heads else out_features
        )
        self.layer_name = name
        rngs = spawn_rngs(rng, num_heads * 3)
        for head in range(num_heads):
            setattr(
                self,
                f"proj{head}",
                Linear(
                    in_features,
                    self.head_features,
                    bias=False,
                    name=f"{name}.head{head}.proj",
                    rng=rngs[3 * head],
                ),
            )
            setattr(
                self,
                f"attn_src{head}",
                init.glorot_uniform(
                    (self.head_features, 1),
                    rng=rngs[3 * head + 1],
                    name=f"{name}.head{head}.attn_src",
                ),
            )
            setattr(
                self,
                f"attn_dst{head}",
                init.glorot_uniform(
                    (self.head_features, 1),
                    rng=rngs[3 * head + 2],
                    name=f"{name}.head{head}.attn_dst",
                ),
            )

    # ------------------------------------------------------------------ #
    def _head_weights(self, head: int) -> Tuple[Linear, Tensor, Tensor]:
        proj: Linear = getattr(self, f"proj{head}")
        attn_src = self.effective_weight(
            f"{self.layer_name}.head{head}.attn_src", getattr(self, f"attn_src{head}")
        )
        attn_dst = self.effective_weight(
            f"{self.layer_name}.head{head}.attn_dst", getattr(self, f"attn_dst{head}")
        )
        return proj, attn_src, attn_dst

    def _combine_heads(self, head_outputs) -> Tensor:
        if self.concat_heads:
            return ops.concat(head_outputs, axis=1)
        total = head_outputs[0]
        for other in head_outputs[1:]:
            total = total + other
        return total * (1.0 / self.num_heads)

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor, adjacency: CSRMatrix) -> Tensor:
        """Apply attention restricted to the adjacency's edges (+ self loops)."""
        edges = attention_edges_cached(adjacency)
        indptr, cols, row_ids = edges.indptr, edges.cols, edges.row_ids
        n = indptr.shape[0] - 1
        head_outputs = []
        for head in range(self.num_heads):
            proj, attn_src, attn_dst = self._head_weights(head)
            h = proj(x)
            src_scores = h @ attn_src  # (n, 1)
            dst_scores = h @ attn_dst  # (n, 1)
            # Edge (i <- j): logit = src[i] + dst[j], exactly the dense
            # logits[i, j] = src_scores[i] + dst_scores[j] restricted to the
            # mask's support.
            logits = ops.gather_rows(src_scores, row_ids) + ops.gather_rows(
                dst_scores, cols, scatter_plan=edges.cols_plan
            )
            logits = ops.leaky_relu(logits, self.negative_slope)
            attention = ops.edge_softmax(logits, indptr, row_ids=row_ids)
            messages = attention * ops.gather_rows(
                h, cols, scatter_plan=edges.cols_plan
            )  # (E, F)
            head_outputs.append(ops.scatter_add_rows(messages, row_ids, n))
        return self._combine_heads(head_outputs)


class GAT(GNNModel):
    """Two-layer GAT: multi-head concatenated hidden layer, averaged output."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_heads: int = 2,
        dropout: float = 0.2,
        rng=None,
    ) -> None:
        super().__init__()
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        self.dropout = dropout
        rng_a, rng_b, rng_drop = spawn_rngs(rng, 3)
        self._dropout_rng = rng_drop
        self.layer0 = GATLayer(
            in_features,
            hidden_features,
            num_heads=num_heads,
            concat_heads=True,
            name="gat0",
            rng=rng_a,
        )
        self.layer1 = GATLayer(
            hidden_features,
            num_classes,
            num_heads=1,
            concat_heads=False,
            name="gat1",
            rng=rng_b,
        )

    def forward(self, batch: BatchInputs, rng: Optional[object] = None) -> Tensor:
        """Return per-node logits for the subgraph in ``batch``."""
        rng = ensure_rng(rng) if rng is not None else self._dropout_rng
        x = Tensor(batch.features)
        x = self.layer0(x, batch.adjacency)
        x = ops.elu_dropout(x, self.dropout, training=self.training, rng=rng)
        return self.layer1(x, batch.adjacency)
