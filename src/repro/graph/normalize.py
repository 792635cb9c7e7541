"""Adjacency normalisation used by the GNN aggregation phase.

GCN uses the symmetric normalisation ``D^{-1/2} (A + I) D^{-1/2}``; GraphSAGE
uses mean aggregation which corresponds to the random-walk normalisation
``D^{-1} A``.  Both operate on the *structural* adjacency, so normalisation
must be recomputed after fault injection flips adjacency bits — the
:mod:`repro.pipeline.mapping_engine` does exactly that.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

from repro.graph.sparse import CSRMatrix
from repro.tensor import kernels


def add_self_loops(adjacency: CSRMatrix) -> CSRMatrix:
    """Return ``A + I`` (existing self loops are not duplicated).

    The result is canonical (rows sorted, no duplicate coordinates, as
    :meth:`CSRMatrix.from_coo` builds it).  A canonical input — which the
    faulty read-back always returns — gets its missing diagonal entries
    inserted in place in one O(nnz + n) pass; any other input is summed
    through ``from_coo``.  An input with every diagonal entry stored comes
    back as is.
    """
    n = adjacency.shape[0]
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    rows = kernels.csr_row_ids(adjacency.indptr)
    cols = adjacency.indices
    has_loop = np.zeros(n, dtype=bool)
    has_loop[rows[rows == cols]] = True
    missing = np.flatnonzero(~has_loop)
    if missing.size == 0:
        return adjacency
    keys = rows * n + cols
    if np.all(keys[1:] > keys[:-1]):
        at = np.searchsorted(keys, missing * n + missing)
        indptr = adjacency.indptr + np.concatenate(([0], np.cumsum(~has_loop)))
        return CSRMatrix(
            indptr,
            np.insert(cols, at, missing),
            np.insert(adjacency.data, at, 1.0),
            adjacency.shape,
        )
    eye_part = CSRMatrix.from_coo(missing, missing, np.ones(missing.size), adjacency.shape)
    return adjacency.add(eye_part)


def normalize_adjacency(
    adjacency: CSRMatrix, self_loops: bool = True, symmetric: bool = True
) -> CSRMatrix:
    """Return the normalised adjacency used for GCN-style aggregation.

    Parameters
    ----------
    adjacency:
        Structural adjacency matrix (binary values expected but not required).
    self_loops:
        If True, add ``I`` before normalising (the GCN ``A-hat``).
    symmetric:
        ``True`` → ``D^{-1/2} A D^{-1/2}``; ``False`` → ``D^{-1} A``.
    """
    mat = add_self_loops(adjacency) if self_loops else adjacency
    degrees = mat.row_sums()
    with np.errstate(divide="ignore"):
        if symmetric:
            inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
            return mat.scale_rows(inv_sqrt).scale_cols(inv_sqrt)
        inv = np.where(degrees > 0, 1.0 / degrees, 0.0)
        return mat.scale_rows(inv)


#: Identity-keyed memo of normalised adjacencies.  :class:`CSRMatrix` is
#: immutable, so object identity implies content identity.  Entries hold a
#: strong reference to the keyed matrix, which keeps its ``id()`` from being
#: recycled while the entry lives; the ``is`` check below makes a collision
#: with a *new* object at a reused address impossible.
_NORMALIZE_CACHE: "OrderedDict[Tuple[int, bool, bool], Tuple[CSRMatrix, CSRMatrix]]" = (
    OrderedDict()
)
_NORMALIZE_CACHE_SIZE = 64


def normalize_adjacency_cached(
    adjacency: CSRMatrix, self_loops: bool = True, symmetric: bool = True
) -> CSRMatrix:
    """Memoised :func:`normalize_adjacency`, keyed on object identity.

    The epoch-cached read-back (:mod:`repro.core.hw_state`) returns the
    *same* adjacency object for every batch until the hardware state
    changes, so the per-forward normalisation — recomputed on every model
    call in the seed path — collapses to a dictionary hit.  Fresh matrices
    fall through to one full normalisation (LRU-bounded, so uncached
    training does not accumulate entries indefinitely).
    """
    key = (id(adjacency), bool(self_loops), bool(symmetric))
    hit = _NORMALIZE_CACHE.get(key)
    if hit is not None and hit[0] is adjacency:
        _NORMALIZE_CACHE.move_to_end(key)
        return hit[1]
    result = normalize_adjacency(adjacency, self_loops=self_loops, symmetric=symmetric)
    _NORMALIZE_CACHE[key] = (adjacency, result)
    _NORMALIZE_CACHE.move_to_end(key)
    while len(_NORMALIZE_CACHE) > _NORMALIZE_CACHE_SIZE:
        _NORMALIZE_CACHE.popitem(last=False)
    return result


def clear_normalize_cache() -> None:
    """Release all memoised normalised adjacencies (and their pinned keys).

    The memo holds strong references to up to ``_NORMALIZE_CACHE_SIZE``
    adjacency/normalised pairs; long-running processes that sweep many
    training runs can call this between runs to release them early (the LRU
    bound caps the retention either way).
    """
    _NORMALIZE_CACHE.clear()
    _AGGREGATE_CACHE.clear()


#: Identity-keyed memo of weight-independent first-layer aggregations
#: ``A @ X`` (and the row sums ``A @ 1`` the reassociated GCN bias term
#: needs).  Same safety argument as ``_NORMALIZE_CACHE``: both the adjacency
#: and the feature array are pinned by the entry, so a reused ``id()`` can
#: never collide with a live key, and the ``is`` checks reject stale hits.
_AGGREGATE_CACHE: "OrderedDict[Tuple[int, int], Tuple[CSRMatrix, np.ndarray, np.ndarray, np.ndarray]]" = (
    OrderedDict()
)
_AGGREGATE_CACHE_SIZE = 128


def aggregate_features_cached(
    adjacency: CSRMatrix, features: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Memoised ``(A @ X, A @ 1)`` for a (normalised) adjacency.

    The first GNN layer's aggregation does not depend on the weights, so
    across the many forward passes that reuse one hardware-stable adjacency
    (every epoch between fault events) it can be computed once:
    ``A @ (X W + 1 bᵀ)`` reassociates to ``(A X) W + (A 1) bᵀ``, turning the
    per-step layer-1 spmm (and its backward transpose spmm) into a dense
    GEMM on the cached ``A X``.  The reassociation is covered by the
    documented round-off contract (see ``docs/ARCHITECTURE.md``); GraphSAGE
    consumes ``A X`` directly, which is bit-identical (same ``csr_matmat``
    call).  Hit/miss counts land in the ``kernel_batched_agg_cache_*``
    counters.
    """
    key = (id(adjacency), id(features))
    hit = _AGGREGATE_CACHE.get(key)
    if hit is not None and hit[0] is adjacency and hit[1] is features:
        _AGGREGATE_CACHE.move_to_end(key)
        kernels.COUNTERS.batched_agg_cache_hits += 1
        return hit[2], hit[3]
    kernels.COUNTERS.batched_agg_cache_misses += 1
    aggregated = adjacency.dot(np.asarray(features, dtype=np.float64))
    ones_sum = adjacency.row_sums()
    _AGGREGATE_CACHE[key] = (adjacency, features, aggregated, ones_sum)
    _AGGREGATE_CACHE.move_to_end(key)
    while len(_AGGREGATE_CACHE) > _AGGREGATE_CACHE_SIZE:
        _AGGREGATE_CACHE.popitem(last=False)
    return aggregated, ones_sum


def row_normalize(features: np.ndarray) -> np.ndarray:
    """Row-normalise a feature matrix (each row sums to one where possible)."""
    features = np.asarray(features, dtype=np.float64)
    sums = np.abs(features).sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return features / sums
