"""Optimisers: plain/momentum SGD and Adam.

The paper trains every model with a learning rate of 0.01 (Table II); Adam is
the default used by the experiment drivers because mini-batch cluster training
with a numpy backend benefits from its per-parameter scaling.

Both update rules are elementwise, so each optimiser steps its whole
:class:`~repro.tensor.module.ParameterArena` with one set of vector
operations over the flat parameter buffer, a flat gradient and flat state
buffers of the same layout, in place.  Per element these are the same
operations, in the same order, as a loop over the parameters.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.tensor.module import Parameter, ParameterArena


class Optimizer:
    """Base optimiser holding a parameter list and its arena."""

    #: Names of the flat per-element state buffers (laid out like the arena).
    _state_names: Tuple[str, ...] = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.arena = ParameterArena.of(self.parameters)
        for name in self._state_names:
            setattr(self, name, np.zeros(self.arena.size))
        #: Monotonic counter identifying the parameter state: bumped once per
        #: :meth:`step`.  Consumers deriving state from the parameters (the
        #: effective-weight cache in :mod:`repro.core.hw_state`) key on it.
        self.param_version = 0

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update; subclasses implement :meth:`_update`.

        The version bump lives here (not in the subclasses) so the
        effective-weight cache invariant — every parameter update advances
        :attr:`param_version` — cannot be forgotten by a new optimiser.  A
        step in which no parameter has a gradient changes no parameter and
        no state buffer; a parameter without a gradient keeps its values and
        its state.
        """
        self.param_version += 1
        self._begin_step()
        arena = self._current_arena()
        grads = [param.grad for param in arena.params]
        if all(grad is not None for grad in grads):
            self._update(
                arena.data,
                np.concatenate([grad.ravel() for grad in grads]),
                *(getattr(self, name) for name in self._state_names),
            )
            return
        for param, grad in zip(arena.params, grads):
            if grad is not None:
                span = arena.span(param)
                self._update(
                    arena.data[span],
                    grad.ravel(),
                    *(getattr(self, name)[span] for name in self._state_names),
                )

    def _current_arena(self) -> ParameterArena:
        """The parameters' arena; state buffers follow it if it was re-packed."""
        arena = ParameterArena.of(self.parameters)
        if arena is not self.arena:
            for name in self._state_names:
                old, new = getattr(self, name), np.zeros(arena.size)
                for param in self.parameters:
                    new[arena.span(param)] = old[self.arena.span(param)]
                setattr(self, name, new)
            self.arena = arena
        return arena

    def _begin_step(self) -> None:
        """Per-step bookkeeping that runs whether or not any gradient exists."""

    def _update(self, data: np.ndarray, grad: np.ndarray, *state: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    _state_names = ("_velocity",)

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, data: np.ndarray, grad: np.ndarray, velocity: np.ndarray) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.momentum:
            velocity *= self.momentum
            velocity += grad
            update = velocity
        else:
            update = grad
        data -= self.lr * update


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    _state_names = ("_m", "_v")

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0

    def _begin_step(self) -> None:
        self._step_count += 1

    def _update(
        self, data: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray
    ) -> None:
        t = self._step_count
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        denom = np.sqrt(v / (1.0 - self.beta2**t))
        denom += self.eps
        update = m / (1.0 - self.beta1**t)
        update *= self.lr
        update /= denom
        data -= update
