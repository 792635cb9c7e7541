"""GraphSAGE with mean aggregation (Hamilton et al., 2017).

Each layer computes ``H' = X @ W_self + (D^{-1} A X) @ W_neigh + b``: the
neighbour mean is the aggregation phase (SpMM with the row-normalised
structural adjacency) and the two dense products are the combination phase
mapped onto weight crossbars.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.normalize import aggregate_features_cached, normalize_adjacency_cached
from repro.nn.base import BatchInputs, GNNModel
from repro.nn.layers import Linear
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import ensure_rng, spawn_rngs


class SAGELayer(GNNModel):
    """One GraphSAGE layer with mean aggregation."""

    def __init__(self, in_features: int, out_features: int, name: str, rng=None) -> None:
        super().__init__()
        rng_self, rng_neigh = spawn_rngs(rng, 2)
        self.self_linear = Linear(
            in_features, out_features, bias=True, name=f"{name}.self", rng=rng_self
        )
        self.neigh_linear = Linear(
            in_features, out_features, bias=False, name=f"{name}.neigh", rng=rng_neigh
        )

    def forward(self, x: Tensor, adjacency_rw) -> Tensor:
        neighbour_mean = ops.spmm(adjacency_rw, x)
        return self.self_linear(x) + self.neigh_linear(neighbour_mean)

    def forward_preaggregated(self, x: Tensor, aggregated) -> Tensor:
        """First-layer forward on the cached neighbour mean ``D^{-1} A X``.

        Bit-identical to :meth:`forward` on the raw features: the cache holds
        the result of the very same ``csr_matmat`` call, and the features
        carry no gradient, so skipping the spmm changes nothing downstream.
        """
        return self.self_linear(x) + self.neigh_linear(Tensor(aggregated))


class GraphSAGE(GNNModel):
    """Multi-layer GraphSAGE for node classification."""

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
            raise ValueError(f"GraphSAGE needs at least 2 layers, got {num_layers}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        self.dropout = dropout
        self.num_layers = num_layers
        rngs = spawn_rngs(rng, num_layers + 1)
        self._dropout_rng = rngs[-1]
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        for index in range(num_layers):
            layer = SAGELayer(
                dims[index], dims[index + 1], name=f"sage{index}", rng=rngs[index]
            )
            setattr(self, f"layer{index}", layer)

    def forward(self, batch: BatchInputs, rng: Optional[object] = None) -> Tensor:
        """Return per-node logits for the subgraph in ``batch``."""
        adjacency_rw = normalize_adjacency_cached(
            batch.adjacency, self_loops=False, symmetric=False
        )
        rng = ensure_rng(rng) if rng is not None else self._dropout_rng
        x = Tensor(batch.features)
        for index in range(self.num_layers):
            layer: SAGELayer = getattr(self, f"layer{index}")
            if index == 0 and self._agg_precompute:
                aggregated, _ = aggregate_features_cached(
                    adjacency_rw, batch.features
                )
                x = layer.forward_preaggregated(x, aggregated)
            else:
                x = layer(x, adjacency_rw)
            if index < self.num_layers - 1:
                x = ops.relu_dropout(x, self.dropout, training=self.training, rng=rng)
        return x
