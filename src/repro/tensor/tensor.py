"""Reverse-mode autodiff tensor.

The design follows the classic "define-by-run tape" pattern: every operation
returns a new :class:`Tensor` holding references to its parents and a closure
that accumulates gradients into them.  ``Tensor.backward()`` topologically
sorts the graph and runs the closures in reverse order.

The engine intentionally supports only what GNN training needs — 2-D (and a
few 1-D) float arrays, broadcasting over leading/trailing unit axes, and the
operations defined in :mod:`repro.tensor.ops`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape`` (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over extra leading axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array data (converted to ``float64``).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    parents:
        Tensors this one was computed from (internal use).
    backward_fn:
        Closure that propagates ``self.grad`` into the parents (internal use).
    name:
        Optional human-readable name (useful when debugging graphs).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Iterable["Tensor"] = (),
        backward_fn: Optional[Callable[[], None]] = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: Tuple[Tensor, ...] = tuple(parents) if _GRAD_ENABLED else ()
        self._backward_fn = backward_fn if _GRAD_ENABLED else None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(
            np.asarray(self.data).item()
        )

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_tensor(other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (creating it if needed)."""
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a fresh float64 array of ``self``'s shape.

        The fused nodes of :mod:`repro.tensor.ops` compute each gradient into
        a new array that nothing else holds, so the first contribution is
        stored as is instead of copied; later ones add exactly as
        :meth:`_accumulate` does.
        """
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Reset accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` and therefore requires a scalar tensor.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float64))

        # Depth-first post-order over the parents, iteratively: a node is
        # appended once every parent's subtree is, parents visited in
        # ``_parents`` order.  Running the nodes in reverse delivers the
        # gradient contributions into a shared tensor in a fixed order.
        order: List[Tensor] = []
        visited: Set[int] = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn()

    # ------------------------------------------------------------------ #
    # Arithmetic (element-wise, broadcasting)
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._as_tensor(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            parents=(self, other),
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(out.grad)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, requires_grad=self.requires_grad, parents=(self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._as_tensor(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._as_tensor(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._as_tensor(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            parents=(self, other),
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * other.data)
            if other.requires_grad:
                other._accumulate(out.grad * self.data)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._as_tensor(other)
        out = Tensor(
            self.data / other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            parents=(self, other),
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / other.data)
            if other.requires_grad:
                other._accumulate(-out.grad * self.data / (other.data**2))

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(
            self.data**exponent, requires_grad=self.requires_grad, parents=(self,)
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    # ------------------------------------------------------------------ #
    # Matrix products
    # ------------------------------------------------------------------ #
    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._as_tensor(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            parents=(self, other),
        )

        def _backward() -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data))
                else:
                    self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    other._accumulate(self.data.T @ grad)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def transpose(self) -> "Tensor":
        out = Tensor(self.data.T, requires_grad=self.requires_grad, parents=(self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.T)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = Tensor(
            self.data.reshape(shape), requires_grad=self.requires_grad, parents=(self,)
        )

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(original))

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor(
            self.data[index], requires_grad=self.requires_grad, parents=(self,)
        )

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self.requires_grad,
            parents=(self,),
        )

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            denom = self.data.size
        else:
            denom = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def max(self, axis: Optional[int] = None) -> "Tensor":
        """Max reduction (gradient flows to the arg-max entries)."""
        out_data = self.data.max(axis=axis, keepdims=axis is not None)
        out = Tensor(
            out_data if axis is None else out_data.squeeze(axis),
            requires_grad=self.requires_grad,
            parents=(self,),
        )

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None:
                grad = np.expand_dims(grad, axis=axis)
            mask = (self.data == out_data).astype(np.float64)
            # Split gradient evenly between ties.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0) if axis is not None else max(mask.sum(), 1.0)
            self._accumulate(mask * grad)

        out._backward_fn = _backward if _GRAD_ENABLED else None
        return out
