"""Layer containers: :class:`Parameter`, :class:`Module` and :class:`Sequential`.

A :class:`Module` mirrors the familiar ``torch.nn.Module`` contract at the
scale this project needs: registration of parameters and sub-modules, named
parameter traversal, train/eval mode, and state-dict export/import (used by
experiments that restart training from a checkpointed fault-free model).

A :class:`ParameterArena` packs a parameter list into one contiguous buffer,
so the passes that touch every parameter element by element (the optimizer
update, FARe's clamp, the weight read-back) each take one array call.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor flagged as trainable (``requires_grad=True`` by default)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        #: Weak reference to the :class:`ParameterArena` holding ``data``.
        self._arena: Optional[weakref.ref] = None

    def __getstate__(self):
        # A weak reference can be neither pickled nor copied.  A restored
        # parameter is packed again by a restored arena (see
        # ``ParameterArena.__reduce__``), or on the next ``ParameterArena.of``.
        slots = {name: getattr(self, name) for name in Tensor.__slots__}
        return dict(self.__dict__, _arena=None), slots


class ParameterArena:
    """Parameters as views of one contiguous float64 buffer.

    The 2-D parameters (the weights a :class:`~repro.nn.base.GNNModel` maps
    onto crossbars) come first, in the given order, so :attr:`weights` is one
    contiguous slice; the other parameters (biases) follow.  Packing copies
    each parameter's values into the buffer and rebinds ``param.data`` to
    its view, so no value changes.  Everything that updates parameters
    writes through the views in place.

    Get the arena of a parameter list with :meth:`of`, which returns the
    live arena already holding exactly that list, in that order, or packs a
    new one.  The parameters refer to their arena weakly, so a finished
    model is still freed by reference counting.
    """

    def __init__(self, params: Iterable[Parameter]) -> None:
        self._given = list(params)
        weights = [p for p in self._given if p.data.ndim == 2]
        self.params: List[Parameter] = weights + [
            p for p in self._given if p.data.ndim != 2
        ]
        self.data = np.empty(sum(p.data.size for p in self.params), dtype=np.float64)
        #: The 2-D parameters' values, concatenated (a view of :attr:`data`).
        self.weights = self.data[: sum(p.data.size for p in weights)]
        self.views: List[np.ndarray] = []
        self._spans: Dict[int, slice] = {}
        self._ref = weakref.ref(self)
        start = 0
        for param in self.params:
            stop = start + param.data.size
            view = self.data[start:stop].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            param._arena = self._ref
            self.views.append(view)
            self._spans[id(param)] = slice(start, stop)
            start = stop

    def __reduce__(self):
        # Pickled and deep-copied as its parameter list, so the restored
        # parameters are views of a restored buffer again.
        return (ParameterArena, (self._given,))

    @classmethod
    def of(cls, params: Iterable[Parameter]) -> "ParameterArena":
        """The arena holding exactly ``params`` (in this order), packed if needed."""
        params = list(params)
        ref = getattr(params[0], "_arena", None) if params else None
        arena = ref() if ref is not None else None
        if arena is not None and arena._holds(params):
            arena.readopt()
            return arena
        return cls(params)

    def _holds(self, params: List[Parameter]) -> bool:
        return len(params) == len(self._given) and all(
            mine is theirs and theirs._arena is self._ref
            for mine, theirs in zip(self._given, params)
        )

    @property
    def size(self) -> int:
        return int(self.data.size)

    def span(self, param: Parameter) -> slice:
        """The slice of :attr:`data` that holds ``param``."""
        return self._spans[id(param)]

    def flat_view(self, params: List[Parameter]) -> np.ndarray:
        """The values of ``params``, flattened in that order, as a view of :attr:`data`.

        They must lie in it back to back in that order: all the 2-D
        parameters, in the arena's order, give :attr:`weights`.
        """
        spans = [self.span(param) for param in params]
        if not spans or any(a.stop != b.start for a, b in zip(spans, spans[1:])):
            raise ValueError("the parameters do not lie back to back in the arena")
        return self.data[spans[0].start : spans[-1].stop]

    def readopt(self) -> None:
        """Copy back any parameter whose ``data`` was rebound, and re-view it.

        Code outside the library may still assign ``param.data``; the arena
        then takes the new values in and points the parameter at its view
        again, so a pass over :attr:`data` never misses an update.
        """
        for param, view in zip(self.params, self.views):
            if param.data is not view:
                view[...] = param.data
                param.data = view


class Module:
    """Base class for neural-network layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration via attribute assignment
    # ------------------------------------------------------------------ #
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs for this module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of the module tree as a list."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs including ``self``."""
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def parameter_arena(self) -> ParameterArena:
        """The :class:`ParameterArena` of :meth:`parameters` (packed on first use)."""
        return ParameterArena.of(self.parameters())

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def train(self) -> "Module":
        """Switch this module (and children) to training mode."""
        self.training = True
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        """Switch this module (and children) to evaluation mode."""
        self.training = False
        for child in self._modules.values():
            child.eval()
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name → array copy of every parameter."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            target = params[name]
            values = np.asarray(values, dtype=np.float64)
            if values.shape != target.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {values.shape} vs {target.data.shape}"
                )
            target.data[...] = values

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Apply modules in order, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for idx, module in enumerate(modules):
            name = f"layer{idx}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x, *args, **kwargs):
        for name in self._order:
            x = getattr(self, name)(x, *args, **kwargs)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (getattr(self, name) for name in self._order)
