"""Seed optimiser loops: one pass per parameter, ``param.data`` rebound.

References for :mod:`repro.tensor.optim`, which steps every parameter of
its :class:`~repro.tensor.module.ParameterArena` with one set of vector
operations in place.  Both update rules are elementwise, so the two must
agree bit for bit (``tests/test_tensor_arena.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np


class SeedAdam:
    """Adam as a Python loop over the parameters, state kept per parameter."""

    def __init__(
        self,
        parameters: Iterable,
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._step_count = 0
        self.param_version = 0

    def step(self) -> None:
        self.param_version += 1
        self._step_count += 1
        t = self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(id(param), np.zeros_like(param.data))
            v = self._v.get(id(param), np.zeros_like(param.data))
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SeedSGD:
    """SGD with momentum and weight decay as a loop over the parameters."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0) -> None:
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel = self._velocity.get(id(param))
                if vel is None:
                    vel = np.zeros_like(param.data)
                vel = self.momentum * vel + grad
                self._velocity[id(param)] = vel
                update = vel
            else:
                update = grad
            param.data = param.data - self.lr * update
