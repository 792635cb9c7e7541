"""The parameter arena: one buffer behind every parameter, updated in place.

A model's parameters are views of one contiguous float64 buffer, 2-D weights
first (:class:`repro.tensor.module.ParameterArena`).  The optimisers, the
clipping clamp and ``load_state_dict`` write through those views, so every
``param.data`` keeps sharing memory with the arena; the vectorised Adam and
SGD equal the per-parameter loops in ``tests/reference/optim.py`` bit for
bit; a step without gradients changes nothing but the step counters.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.clipping import WeightClipper
from repro.nn.factory import build_model
from repro.tensor.module import Parameter, ParameterArena
from repro.tensor.optim import SGD, Adam

from reference.optim import SeedAdam, SeedSGD


def _assert_in_arena(model, arena):
    for param in model.parameters():
        assert np.shares_memory(param.data, arena.data)
    offsets = [arena.span(param) for param in arena.params]
    assert [s.start for s in offsets[1:]] == [s.stop for s in offsets[:-1]]
    assert offsets[-1].stop == arena.size


def _random_grads(model, rng):
    for param in model.parameters():
        param.grad = rng.normal(size=param.data.shape)


@pytest.mark.parametrize("name", ["gcn", "sage", "gat"])
def test_layout_puts_the_mapped_weights_first(name):
    model = build_model(name, 6, 8, 3, rng=0)
    values = {n: p.data.copy() for n, p in model.named_parameters()}
    arena = model.parameter_arena()
    _assert_in_arena(model, arena)
    weights = [p for p in model.parameters() if p.data.ndim == 2]
    assert arena.params[: len(weights)] == weights
    assert np.array_equal(
        arena.weights, np.concatenate([p.data.ravel() for p in weights])
    )
    for n, p in model.named_parameters():
        assert np.array_equal(p.data, values[n])
    assert model.parameter_arena() is arena


def test_flat_view_of_back_to_back_parameters():
    model = build_model("gcn", 6, 8, 3, rng=0)
    arena = model.parameter_arena()
    weights = [p for p in model.parameters() if p.data.ndim == 2]
    together = arena.flat_view(weights)
    assert together.base is arena.data and np.array_equal(together, arena.weights)
    one = arena.flat_view(weights[1:2])
    assert one.base is arena.data and np.array_equal(one, weights[1].data.ravel())
    for params in (weights[::-1], []):
        with pytest.raises(ValueError, match="back to back"):
            arena.flat_view(params)


def test_every_update_keeps_the_views():
    rng = np.random.default_rng(0)
    model = build_model("gcn", 6, 8, 3, rng=0)
    adam = Adam(model.parameters(), lr=0.1)
    arena = adam.arena
    assert model.parameter_arena() is arena
    _assert_in_arena(model, arena)
    _random_grads(model, rng)
    adam.step()
    _assert_in_arena(model, arena)
    SGD(model.parameters(), lr=0.1, momentum=0.5).step()
    _assert_in_arena(model, arena)
    for param in model.parameters():
        param.data[...] = 9.0
    assert WeightClipper(1.0).clip_model(model) == sum(
        p.data.size for p in model.parameters() if p.data.ndim == 2
    )
    _assert_in_arena(model, arena)
    assert np.all(arena.weights == 1.0)
    model.load_state_dict({n: np.full(p.data.shape, 2.0) for n, p in model.named_parameters()})
    _assert_in_arena(model, arena)
    assert np.all(arena.data == 2.0)
    assert model.parameter_arena() is arena


def test_a_rebound_parameter_is_taken_back_in():
    model = build_model("gcn", 6, 8, 3, rng=0)
    arena = model.parameter_arena()
    param = model.parameters()[0]
    param.data = np.full(param.data.shape, 7.0)
    assert model.parameter_arena() is arena
    assert np.shares_memory(param.data, arena.data)
    assert np.all(arena.data[arena.span(param)] == 7.0)


def test_a_step_without_gradients_changes_only_the_counters():
    rng = np.random.default_rng(1)
    model = build_model("gcn", 6, 8, 3, rng=0)
    adam = Adam(model.parameters(), lr=0.1)
    _random_grads(model, rng)
    adam.step()
    before = (adam.arena.data.copy(), adam._m.copy(), adam._v.copy())
    adam.zero_grad()
    adam.step()
    assert adam.param_version == 2 and adam._step_count == 2
    for now, then in zip((adam.arena.data, adam._m, adam._v), before):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_equals_the_per_parameter_loop(weight_decay):
    rng = np.random.default_rng(2)
    models = [build_model("gat", 6, 8, 3, rng=5) for _ in range(2)]
    adam = Adam(models[0].parameters(), lr=0.05, weight_decay=weight_decay)
    seed = SeedAdam(models[1].parameters(), lr=0.05, weight_decay=weight_decay)
    for step in range(50):
        for mine, theirs in zip(models[0].parameters(), models[1].parameters()):
            grad = rng.normal(size=mine.data.shape)
            # Some steps leave one parameter without a gradient.
            keep = step % 7 != 3 or mine is models[0].parameters()[1]
            mine.grad = grad if keep else None
            theirs.grad = grad.copy() if keep else None
        adam.step()
        seed.step()
        for mine, theirs in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(mine.data, theirs.data)
    assert adam.param_version == seed.param_version == 50


@pytest.mark.parametrize("momentum, weight_decay", [(0.0, 0.0), (0.9, 0.1)])
def test_sgd_equals_the_per_parameter_loop(momentum, weight_decay):
    rng = np.random.default_rng(3)
    models = [build_model("sage", 6, 8, 3, rng=5) for _ in range(2)]
    sgd = SGD(models[0].parameters(), lr=0.05, momentum=momentum, weight_decay=weight_decay)
    seed = SeedSGD(models[1].parameters(), lr=0.05, momentum=momentum, weight_decay=weight_decay)
    for step in range(20):
        for mine, theirs in zip(models[0].parameters(), models[1].parameters()):
            grad = rng.normal(size=mine.data.shape)
            keep = step % 5 != 2 or mine is models[0].parameters()[0]
            mine.grad = grad if keep else None
            theirs.grad = grad.copy() if keep else None
        sgd.step()
        seed.step()
        for mine, theirs in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(mine.data, theirs.data)


def test_optimizer_state_follows_a_repacked_arena():
    """Packing a parameter into another arena moves the optimiser's state."""
    rng = np.random.default_rng(4)
    params = [Parameter(rng.normal(size=shape)) for shape in ((3, 2), (2, 2), (4,))]
    twins = [Parameter(p.data.copy()) for p in params]
    adam, seed = Adam(params, lr=0.1), SeedAdam(twins, lr=0.1)
    for step in range(6):
        if step == 3:
            other = ParameterArena(params[::-1])  # weights in the other order
            assert other.params[0] is params[1]
        for mine, theirs in zip(params, twins):
            mine.grad = rng.normal(size=mine.data.shape)
            theirs.grad = mine.grad.copy()
        adam.step()
        seed.step()
        for mine, theirs in zip(params, twins):
            assert np.array_equal(mine.data, theirs.data)


@pytest.mark.parametrize("restore", ["pickle", "deepcopy"])
def test_a_restored_model_and_optimizer_share_a_restored_arena(restore):
    rng = np.random.default_rng(6)
    model = build_model("gcn", 6, 8, 3, rng=0)
    adam = Adam(model.parameters(), lr=0.1)
    _random_grads(model, rng)
    adam.step()
    if restore == "pickle":
        model2, adam2 = pickle.loads(pickle.dumps((model, adam)))
    else:
        model2, adam2 = copy.deepcopy((model, adam))
    assert model2.parameter_arena() is adam2.arena
    _assert_in_arena(model2, adam2.arena)
    assert not np.shares_memory(adam2.arena.data, adam.arena.data)
    for _ in range(3):
        for mine, theirs in zip(model.parameters(), model2.parameters()):
            mine.grad = rng.normal(size=mine.data.shape)
            theirs.grad = mine.grad.copy()
        adam.step()
        adam2.step()
    for mine, theirs in zip(model.parameters(), model2.parameters()):
        assert np.array_equal(mine.data, theirs.data)
    lone = copy.deepcopy(model)
    arena = lone.parameter_arena()
    assert arena is not adam.arena
    _assert_in_arena(lone, arena)
