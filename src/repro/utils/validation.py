"""Input validation helpers shared across the library."""

from __future__ import annotations

import math
import numbers
from typing import Any

import numpy as np


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_fraction(value: Any, name: str, inclusive_high: bool = True) -> float:
    """Validate that ``value`` is a fraction in ``[0, 1]`` (or ``[0, 1)``)."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value):
        # Every comparison with NaN is false: the range checks below would pass it.
        raise ValueError(f"{name} must be a number, got nan")
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if inclusive_high:
        if value > 1.0:
            raise ValueError(f"{name} must be <= 1, got {value}")
    elif value >= 1.0:
        raise ValueError(f"{name} must be < 1, got {value}")
    return value


def check_square_matrix(mat: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``mat`` is a 2-D square numpy array."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {mat.shape}")
    return mat


def check_permutation(perm: Any, n: int, name: str = "permutation") -> np.ndarray:
    """Validate that ``perm`` is a permutation of ``0..n-1`` and return it.

    Runs in O(n) via ``np.bincount`` (the previous idiom at the call sites —
    ``sorted(perm.tolist()) == list(range(n))`` — was O(n log n) plus a
    Python-list round trip, and sat inside per-block hot loops).
    """
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise ValueError(
            f"{name} must have shape ({n},), got {tuple(perm.shape)}"
        )
    if n == 0:
        return perm
    if perm.min() < 0 or perm.max() >= n:
        raise ValueError(f"{name} must be a permutation of 0..{n - 1}")
    if not np.all(np.bincount(perm, minlength=n) == 1):
        raise ValueError(f"{name} must be a permutation of 0..{n - 1}")
    return perm


def check_probability_ratio(sa0: float, sa1: float) -> tuple:
    """Validate an SA0:SA1 ratio pair and return it normalised to sum to one."""
    if sa0 < 0 or sa1 < 0:
        raise ValueError(f"ratio components must be non-negative, got {sa0}:{sa1}")
    total = sa0 + sa1
    if total <= 0:
        raise ValueError("ratio components must not both be zero")
    return sa0 / total, sa1 / total
