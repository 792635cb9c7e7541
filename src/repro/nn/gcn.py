"""Graph Convolutional Network (Kipf & Welling, 2017).

Each layer performs the two phases the paper maps onto ReRAM crossbars:

* **Combination**: ``H = X @ W`` — dense MVM with the learnable weight.
* **Aggregation**: ``H' = A_hat @ H`` — SpMM with the symmetric-normalised
  adjacency ``A_hat = D^{-1/2}(A+I)D^{-1/2}`` of the mini-batch subgraph.

The adjacency handed to :meth:`GCN.forward` is the *structural* (binary,
possibly fault-corrupted) matrix; normalisation is recomputed digitally
whenever the structural matrix changes, exactly as the accelerator's
peripheral logic would (memoised per adjacency object — the epoch-cached
read-back hands the same matrix back until the hardware state changes).
"""

from __future__ import annotations

from typing import Optional

from repro.graph.normalize import aggregate_features_cached, normalize_adjacency_cached
from repro.nn.base import BatchInputs, GNNModel
from repro.nn.layers import Linear
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import ensure_rng, spawn_rngs


class GCNLayer(GNNModel):
    """One GCN layer: combination (dense MVM) followed by aggregation (SpMM)."""

    def __init__(self, in_features: int, out_features: int, name: str, rng=None) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=True, name=name, rng=rng)

    def forward(self, x: Tensor, adjacency_norm) -> Tensor:
        linear = self.linear
        return ops.gcn_layer(
            adjacency_norm, x, linear.weight, linear.weight_value(), linear.bias
        )

    def forward_preaggregated(self, aggregated, row_sums) -> Tensor:
        """Reassociated first-layer forward on a cached aggregation.

        ``A (X W + 1 bᵀ) = (A X) W + (A 1) bᵀ`` — ``aggregated`` is the
        cached ``A X`` and ``row_sums`` the cached ``A 1``, so the per-step
        spmm (and its backward transpose spmm) collapses into a dense GEMM.
        Covered by the round-off contract: the reassociation changes the
        floating-point summation order, not the operator.
        """
        linear = self.linear
        return ops.gcn_first_layer(
            aggregated, row_sums, linear.weight, linear.weight_value(), linear.bias
        )


class GCN(GNNModel):
    """Two-layer GCN for node classification.

    Parameters
    ----------
    in_features:
        Input feature dimensionality.
    hidden_features:
        Hidden layer width (the paper quotes hidden dimensions around 1024
        for full-scale datasets; the surrogate experiments use smaller ones).
    num_classes:
        Output dimensionality (classes or multi-label targets).
    dropout:
        Dropout probability applied to the hidden representation.
    num_layers:
        Number of GCN layers (>= 2; intermediate layers keep the hidden width).
    rng:
        Seed/generator for weight initialisation and dropout.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        dropout: float = 0.2,
        num_layers: int = 2,
        rng=None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError(f"GCN needs at least 2 layers, got {num_layers}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        self.dropout = dropout
        self.num_layers = num_layers
        rngs = spawn_rngs(rng, num_layers + 1)
        self._dropout_rng = rngs[-1]
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        for index in range(num_layers):
            layer = GCNLayer(
                dims[index], dims[index + 1], name=f"gcn{index}", rng=rngs[index]
            )
            setattr(self, f"layer{index}", layer)

    def forward(self, batch: BatchInputs, rng: Optional[object] = None) -> Tensor:
        """Return per-node logits for the subgraph in ``batch``."""
        adjacency_norm = normalize_adjacency_cached(
            batch.adjacency, self_loops=True, symmetric=True
        )
        rng = ensure_rng(rng) if rng is not None else self._dropout_rng
        x = Tensor(batch.features)
        for index in range(self.num_layers):
            layer: GCNLayer = getattr(self, f"layer{index}")
            if index == 0 and self._agg_precompute:
                aggregated, row_sums = aggregate_features_cached(
                    adjacency_norm, batch.features
                )
                x = layer.forward_preaggregated(aggregated, row_sums)
            else:
                x = layer(x, adjacency_norm)
            if index < self.num_layers - 1:
                x = ops.relu_dropout(x, self.dropout, training=self.training, rng=rng)
        return x
