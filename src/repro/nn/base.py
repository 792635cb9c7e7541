"""Common infrastructure shared by the GNN models.

:class:`GNNModel` adds the *weight transform* hook to
:class:`~repro.tensor.module.Module`: when the training pipeline maps weights
onto faulty crossbars, it installs a callable that maps ``(parameter name,
parameter values) -> effective values``.  Layers call
:meth:`GNNModel.effective_weight_value` (or :meth:`GNNModel.effective_weight`
for a tensor of the graph) so the forward pass uses the faulty,
quantised weights while gradients still flow to the master (floating point)
copy — the straight-through estimator that on-device ReRAM training implements
physically (weights are updated digitally and re-programmed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.graph.sparse import CSRMatrix
from repro.tensor.module import Module, Parameter
from repro.tensor.tensor import Tensor

#: Maps (parameter name, parameter values) to the values the hardware
#: actually applies during the MVM (after quantisation and faults).
WeightTransform = Callable[[str, np.ndarray], np.ndarray]


@dataclass
class BatchInputs:
    """Inputs of one mini-batch forward pass.

    Attributes
    ----------
    features:
        ``(num_nodes, num_features)`` node features of the subgraph.
    adjacency:
        Binary structural adjacency of the subgraph *as read back from the
        crossbars* (i.e. already including any stuck-at-fault corruption).
    """

    features: np.ndarray
    adjacency: CSRMatrix

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


class GNNModel(Module):
    """Base class adding hardware weight-transform support to a module."""

    def __init__(self) -> None:
        super().__init__()
        self._weight_transform: Optional[WeightTransform] = None
        self._agg_precompute = False

    # ------------------------------------------------------------------ #
    # Hardware hook
    # ------------------------------------------------------------------ #
    def set_weight_transform(self, transform: Optional[WeightTransform]) -> None:
        """Install (or clear, with ``None``) the hardware weight transform."""
        self._weight_transform = transform
        for child in self._modules.values():
            if isinstance(child, GNNModel):
                child.set_weight_transform(transform)

    def set_agg_precompute(self, flag: bool) -> None:
        """Toggle the cached weight-independent first-layer aggregation.

        When enabled, models whose first-layer aggregation does not depend
        on the weights (GCN, GraphSAGE) read ``A @ X`` from
        :func:`repro.graph.normalize.aggregate_features_cached` instead of
        recomputing the spmm every forward pass.  GraphSAGE's cached path is
        bit-identical; GCN reassociates ``A (X W + 1 bᵀ)`` into
        ``(A X) W + (A 1) bᵀ`` and is covered by the documented round-off
        contract.  Models without such a path (GAT) ignore the flag.
        """
        self._agg_precompute = bool(flag)
        for child in self._modules.values():
            if isinstance(child, GNNModel):
                child.set_agg_precompute(flag)

    @property
    def weight_transform(self) -> Optional[WeightTransform]:
        return self._weight_transform

    def _read_back(self, name: str, param: Parameter) -> np.ndarray:
        effective = np.asarray(
            self._weight_transform(name, param.data), dtype=np.float64
        )
        if effective.shape != param.data.shape:
            raise ValueError(
                f"weight transform changed the shape of {name!r}: "
                f"{param.data.shape} -> {effective.shape}"
            )
        return effective

    def effective_weight_value(self, name: str, param: Parameter) -> np.ndarray:
        """The value the combination-phase MVM uses for ``param``.

        Without a transform this is ``param.data`` itself.  With one it is
        the straight-through read-back ``p + (e − p)``, with
        ``e = transform(name, param.data)``: the forward value of
        :meth:`effective_weight`, whose gradient the fused layer nodes of
        :mod:`repro.tensor.ops` send into ``param`` unchanged.
        """
        if self._weight_transform is None:
            return param.data
        return param.data + (self._read_back(name, param) - param.data)

    def effective_weight(self, name: str, param: Parameter) -> Tensor:
        """Return the tensor actually used in the combination-phase MVM.

        Without a transform this is the parameter itself.  With a transform
        the returned tensor evaluates to ``transform(name, param.data)`` in
        the forward pass while its gradient flows unchanged into ``param``
        (straight-through estimator).  GAT's attention vectors use it with
        the generic ops; the layers' weight products use
        :meth:`effective_weight_value` with a fused node.
        """
        if self._weight_transform is None:
            return param
        correction = Tensor(self._read_back(name, param) - param.data, requires_grad=False)
        return param + correction

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def forward(self, batch: BatchInputs, rng=None) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def combination_weight_names(self) -> list:
        """Names of the parameters mapped onto weight crossbars.

        By convention every 2-D parameter participates in combination-phase
        MVMs (biases stay in digital peripheral registers).
        """
        return [name for name, p in self.named_parameters() if p.data.ndim == 2]
