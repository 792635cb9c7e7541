"""Weight clipping for the combination phase (paper Section IV-B).

A single SA1 fault near the MSB cell of a weight makes its read-back value
jump towards the extreme of the representable range ("weight explosion").
The clipping threshold is a constant hyperparameter: the tile's 16-bit
comparators and 2:1 muxes clamp every weight read from the crossbars to
``[-threshold, +threshold]`` on the fly, and the digital weight update clamps
the master copy to the same range so the stored values stay representable.
Clipping acts as an implicit regulariser: back-propagation trains the healthy
weights to compensate for the clamped faulty ones.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.tensor.module import Module


class WeightClipper:
    """Clamp weights to a symmetric range ``[-threshold, +threshold]``.

    Parameters
    ----------
    threshold:
        The clipping threshold (constant throughout training).
    """

    def __init__(self, threshold: float = 1.0) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = float(threshold)

    def __repr__(self) -> str:
        return f"WeightClipper(threshold={self.threshold})"

    # ------------------------------------------------------------------ #
    def clip_array(self, values: np.ndarray) -> np.ndarray:
        """Return ``values`` clamped to the clipping range (new array)."""
        return np.clip(np.asarray(values, dtype=np.float64), -self.threshold, self.threshold)

    def clip_model(self, model: Module, parameter_names: Optional[Iterable[str]] = None) -> int:
        """Clamp the master copy of model parameters in place.

        Parameters
        ----------
        model:
            The model whose parameters are clipped.
        parameter_names:
            Restrict clipping to these parameter names (default: every 2-D
            parameter, i.e. the weights mapped onto crossbars — one clamp
            over the contiguous weight slice of the model's
            :class:`~repro.tensor.module.ParameterArena`).

        Returns
        -------
        Number of scalar weights that were actually clamped.
        """
        if parameter_names is None:
            targets = [model.parameter_arena().weights]
        else:
            names = set(parameter_names)
            targets = [
                param.data
                for name, param in model.named_parameters()
                if name in names
            ]
        clipped = 0
        for values in targets:
            after = self.clip_array(values)
            clipped += int(np.count_nonzero(values != after))
            values[...] = after
        return clipped

    @staticmethod
    def suggest_threshold(model: Module, multiplier: float = 3.0) -> float:
        """Heuristic threshold: ``multiplier`` × the std of the initial weights.

        The paper treats the threshold as a hyperparameter; this helper gives
        a sensible default when the caller does not specify one.
        """
        if multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        stds = [
            float(param.data.std())
            for _, param in model.named_parameters()
            if param.data.ndim == 2 and param.data.size
        ]
        if not stds:
            return 1.0
        return max(multiplier * float(np.mean(stds)), 1e-3)
