"""Generic neural-network layers used inside the GNN models."""

from __future__ import annotations

from repro.nn.base import GNNModel
from repro.tensor import init, ops
from repro.tensor.tensor import Tensor


class Linear(GNNModel):
    """Affine layer ``y = x @ W + b`` with hardware-transformable weight.

    Parameters
    ----------
    in_features, out_features:
        Weight shape.
    bias:
        Whether to add a bias (kept digital, never mapped to crossbars).
    name:
        Parameter-name prefix; the weight registers as ``f"{name}.weight"``
        with the hardware mapping engine.
    rng:
        Seed/generator for Glorot initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "linear",
        rng=None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature sizes must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.layer_name = name
        self.weight = init.glorot_uniform(
            (in_features, out_features), rng=rng, name=f"{name}.weight"
        )
        self.bias = init.zeros((out_features,), name=f"{name}.bias") if bias else None

    def weight_value(self):
        """The weight's value as the crossbars provide it (straight-through)."""
        return self.effective_weight_value(f"{self.layer_name}.weight", self.weight)

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.weight_value(), self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )
