"""Fused autograd nodes ≡ the generic-op chains they replace, bit for bit.

Each fused node of :mod:`repro.tensor.ops` and each single-node loss of
:mod:`repro.nn.losses` is run against its chain in
``tests/reference/fused.py`` on fresh copies of the same inputs: forward
values and the gradient of every input and parameter must be equal under
``np.array_equal`` — not within a tolerance.  Whole GCN, GraphSAGE and GAT
training steps are compared the same way, with the weight transform on and
off, the cached first-layer aggregation on and off, on a 0-row batch, and
under ``no_grad``.
"""

import numpy as np
import pytest

from repro.graph.normalize import normalize_adjacency
from repro.graph.sparse import CSRMatrix
from repro.nn.base import BatchInputs
from repro.nn.factory import build_model
from repro.nn.losses import bce_with_logits, cross_entropy
from repro.tensor import ops
from repro.tensor.module import Parameter
from repro.tensor.tensor import Tensor, no_grad

from reference import fused as chains


def _random_adjacency(rng, n, density=0.2):
    dense = (rng.random((n, n)) < density).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    return CSRMatrix.from_dense(dense)


def _transform(name, values):
    """A deterministic stand-in for the faulty read-back (``e ≠ p``)."""
    return np.clip(np.round(values * 7.0) / 7.0, -0.4, 0.4)


def _assert_same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b), np.max(np.abs(a - b))


class _Inputs:
    """Two independent copies of one set of leaf tensors."""

    def __init__(self, rng, rows, features, out, bias=True, x_grad=True):
        x = rng.normal(size=(rows, features))
        weight = rng.normal(size=(features, out))
        b = rng.normal(size=out)
        self.copies = []
        for _ in range(2):
            self.copies.append(
                (
                    Tensor(x.copy(), requires_grad=x_grad),
                    Parameter(weight.copy()),
                    Parameter(b.copy()) if bias else None,
                )
            )
        self.effective = _transform("w", weight)

    def value(self, weight, transform):
        if not transform:
            return weight.data
        return weight.data + (self.effective - weight.data)


def _compare_backward(fused_out, chain_out, fused_leaves, chain_leaves, rng):
    _assert_same(fused_out.data, chain_out.data)
    grad = rng.normal(size=fused_out.shape)
    fused_out.backward(grad)
    chain_out.backward(grad)
    for mine, theirs in zip(fused_leaves, chain_leaves):
        if mine is None:
            continue
        if theirs.grad is None:
            assert mine.grad is None
            continue
        _assert_same(mine.grad, theirs.grad)


# --------------------------------------------------------------------------- #
# Layer nodes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("transform", [False, True])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("rows", [0, 1, 17])
def test_linear_matches_chain(transform, bias, rows):
    rng = np.random.default_rng(rows * 4 + 2 * bias + transform)
    inputs = _Inputs(rng, rows, 6, 5, bias=bias)
    (x, w, b), (x2, w2, b2) = inputs.copies
    fused = ops.linear(x, w, inputs.value(w, transform), b)
    chain = chains.linear_chain(x2, w2, inputs.effective if transform else None, b2)
    _compare_backward(fused, chain, (x, w, b), (x2, w2, b2), rng)


@pytest.mark.parametrize("transform", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("rows", [0, 1, 23])
def test_gcn_layer_matches_chain(transform, x_grad, rows):
    rng = np.random.default_rng(100 + rows + 2 * x_grad + transform)
    adjacency = normalize_adjacency(_random_adjacency(rng, rows))
    inputs = _Inputs(rng, rows, 5, 4, x_grad=x_grad)
    (x, w, b), (x2, w2, b2) = inputs.copies
    fused = ops.gcn_layer(adjacency, x, w, inputs.value(w, transform), b)
    chain = chains.gcn_layer_chain(
        adjacency, x2, w2, inputs.effective if transform else None, b2
    )
    _compare_backward(fused, chain, (x, w, b), (x2, w2, b2), rng)


@pytest.mark.parametrize("transform", [False, True])
@pytest.mark.parametrize("rows", [0, 1, 19])
def test_gcn_first_layer_matches_chain(transform, rows):
    rng = np.random.default_rng(200 + rows + transform)
    adjacency = normalize_adjacency(_random_adjacency(rng, rows))
    features = rng.normal(size=(rows, 6))
    aggregated, row_sums = adjacency.dot(features), adjacency.row_sums()
    inputs = _Inputs(rng, rows, 6, 3)
    (_, w, b), (_, w2, b2) = inputs.copies
    fused = ops.gcn_first_layer(aggregated, row_sums, w, inputs.value(w, transform), b)
    chain = chains.gcn_first_layer_chain(
        aggregated, row_sums, w2, inputs.effective if transform else None, b2
    )
    _compare_backward(fused, chain, (w, b), (w2, b2), rng)


@pytest.mark.parametrize("kind", ["relu", "elu"])
@pytest.mark.parametrize("p, training", [(0.3, True), (0.0, True), (0.3, False)])
@pytest.mark.parametrize("rows", [0, 13])
def test_activation_dropout_matches_chain(kind, p, training, rows):
    rng = np.random.default_rng(300 + rows)
    data = rng.normal(size=(rows, 7))
    if rows:
        data[0:2, 0] = 0.0  # relu's and elu's kink
    x, x2 = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
    fused_op = ops.relu_dropout if kind == "relu" else ops.elu_dropout
    chain_op = chains.relu_dropout_chain if kind == "relu" else chains.elu_dropout_chain
    draws, draws2 = np.random.default_rng(9), np.random.default_rng(9)
    fused = fused_op(x, p, training=training, rng=draws)
    chain = chain_op(x2, p, training=training, rng=draws2)
    _compare_backward(fused, chain, (x,), (x2,), rng)
    # Same draws from the dropout stream, so every later draw agrees too.
    assert draws.bit_generator.state == draws2.bit_generator.state


def test_activation_dropout_rejects_bad_probability():
    with pytest.raises(ValueError):
        ops.relu_dropout(Tensor(np.ones((2, 2))), 1.0)
    with pytest.raises(ValueError):
        ops.elu_dropout(Tensor(np.ones((2, 2))), -0.1, training=False)


# --------------------------------------------------------------------------- #
# Loss nodes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("selected", ["all", "some", "none"])
@pytest.mark.parametrize("upstream", [None, 2.5])
def test_cross_entropy_matches_chain(selected, upstream):
    rng = np.random.default_rng(400)
    logits = rng.normal(scale=3.0, size=(15, 6))
    labels = rng.integers(0, 6, size=15)
    mask = {"all": None, "some": rng.random(15) < 0.5, "none": np.zeros(15, bool)}[
        selected
    ]
    a, b = Tensor(logits.copy(), requires_grad=True), Tensor(logits.copy(), requires_grad=True)
    fused, chain = cross_entropy(a, labels, mask), chains.cross_entropy_chain(b, labels, mask)
    _assert_same(fused.data, chain.data)
    assert fused.item() == chain.item()
    fused.backward(upstream)
    chain.backward(upstream)
    if selected == "none":
        assert a.grad is None and b.grad is None
        return
    _assert_same(a.grad, b.grad)


@pytest.mark.parametrize("selected", ["all", "some", "none"])
def test_bce_with_logits_matches_chain(selected):
    rng = np.random.default_rng(500)
    logits = rng.normal(scale=4.0, size=(12, 5))
    logits[0, 0], logits[1, 1] = 800.0, -800.0
    labels = (rng.random((12, 5)) < 0.4).astype(float)
    mask = {"all": None, "some": rng.random(12) < 0.5, "none": np.zeros(12, bool)}[
        selected
    ]
    a, b = Tensor(logits.copy(), requires_grad=True), Tensor(logits.copy(), requires_grad=True)
    fused = bce_with_logits(a, labels, mask)
    chain = chains.bce_with_logits_chain(b, labels, mask)
    _assert_same(fused.data, chain.data)
    fused.backward()
    chain.backward()
    if selected == "none":
        assert a.grad is None and b.grad is None
        return
    _assert_same(a.grad, b.grad)


# --------------------------------------------------------------------------- #
# Whole training steps
# --------------------------------------------------------------------------- #
def _batch(rng, rows, features):
    return BatchInputs(
        features=rng.normal(size=(rows, features)),
        adjacency=_random_adjacency(rng, rows) if rows else CSRMatrix.zeros((0, 0)),
    )


def _step(model, forward, loss_fn, batch, labels, mask, transform, grad_enabled):
    model.set_weight_transform(_transform if transform else None)
    draws = np.random.default_rng(77)
    if not grad_enabled:
        with no_grad():
            return forward(batch, draws), None
    logits = forward(batch, draws)
    loss = loss_fn(logits, labels, mask)
    model.zero_grad()
    loss.backward()
    return logits, loss


@pytest.mark.parametrize("name", ["gcn", "sage", "gat"])
@pytest.mark.parametrize("transform", [False, True])
@pytest.mark.parametrize("precompute", [False, True])
@pytest.mark.parametrize("rows", [0, 29])
@pytest.mark.parametrize("grad_enabled", [True, False])
def test_training_step_matches_chain(name, transform, precompute, rows, grad_enabled):
    """GAT runs the multi-label loss; its per-head ``h`` feeds three ops, so
    the order of the gradient contributions into it is checked too."""
    rng = np.random.default_rng(600 + rows)
    batch = _batch(rng, rows, 9)
    multilabel = name == "gat"
    labels = (
        (rng.random((rows, 4)) < 0.3).astype(float)
        if multilabel
        else rng.integers(0, 4, size=rows)
    )
    mask = rng.random(rows) < 0.7
    fused_model, chain_model = (
        build_model(name, 9, 8, 4, dropout=0.25, rng=3) for _ in range(2)
    )
    fused_model.set_agg_precompute(precompute)
    chain_model.set_agg_precompute(precompute)
    logits, loss = _step(
        fused_model,
        fused_model,
        bce_with_logits if multilabel else cross_entropy,
        batch, labels, mask, transform, grad_enabled,
    )
    chain_logits, chain_loss = _step(
        chain_model,
        lambda b, r: chains.chain_forward(chain_model, b, r),
        chains.bce_with_logits_chain if multilabel else chains.cross_entropy_chain,
        batch, labels, mask, transform, grad_enabled,
    )
    _assert_same(logits.data, chain_logits.data)
    if not grad_enabled:
        assert logits._backward_fn is None and logits._parents == ()
        return
    assert loss.item() == chain_loss.item()
    for (pname, mine), (_, theirs) in zip(
        fused_model.named_parameters(), chain_model.named_parameters()
    ):
        if theirs.grad is None:
            assert mine.grad is None, pname
        else:
            _assert_same(mine.grad, theirs.grad)
