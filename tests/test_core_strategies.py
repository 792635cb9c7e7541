"""Tests for the fault-handling strategy objects."""

import numpy as np
import pytest

from repro.core.mapping import BatchMapping
from repro.core.strategies import (
    STRATEGY_REGISTRY,
    FaReStrategy,
    FaultFreeStrategy,
    FaultUnawareStrategy,
    NeuronReorderingStrategy,
    WeightClippingStrategy,
    build_strategy,
)
from repro.graph.sparse import CSRMatrix
from repro.hardware.faults import FaultMap, FaultModel
from repro.nn.gcn import GCN
from repro.pipeline.mapping_engine import decompose_adjacency

from reference.mapping import SeedNeuronReordering


def make_blocks_and_maps(num_blocks=3, num_crossbars=5, size=16, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [(rng.random((size, size)) < 0.05).astype(float) for _ in range(num_blocks)]
    fmaps = FaultModel(0.05, (9, 1), seed=seed).generate(num_crossbars, size, size)
    return blocks, fmaps


class TestRegistry:
    def test_all_strategies_present(self):
        assert set(STRATEGY_REGISTRY) == {
            "fault_free",
            "fault_unaware",
            "nr",
            "clipping",
            "fare",
        }

    @pytest.mark.parametrize("name", list(STRATEGY_REGISTRY))
    def test_build_strategy(self, name):
        strategy = build_strategy(name)
        assert strategy.name == name

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            build_strategy("magic")

    def test_flags_match_paper_roles(self):
        assert not FaultFreeStrategy().requires_hardware
        assert FaultUnawareStrategy().requires_hardware
        assert NeuronReorderingStrategy().reorders_every_batch
        assert WeightClippingStrategy().uses_clipping
        fare = FaReStrategy()
        assert fare.uses_clipping and fare.uses_fault_aware_mapping
        assert not fare.reorders_every_batch


class TestBaseBehaviour:
    def test_sequential_plan(self):
        blocks, fmaps = make_blocks_and_maps()
        plan = FaultUnawareStrategy().plan_adjacency([blocks], fmaps, [7, 8, 9, 10, 11], 16)
        assert len(plan) == 1
        assert [m.crossbar_index for m in plan[0].blocks] == [7, 8, 9]

    def test_identity_weight_handling(self):
        strategy = FaultUnawareStrategy()
        values = np.ones((4, 4))
        assert strategy.weight_storage_permutation("w", values, lambda: np.zeros((4, 4))) is None
        np.testing.assert_array_equal(strategy.transform_effective_weights(values), values)

    def test_refresh_is_noop(self):
        blocks, fmaps = make_blocks_and_maps()
        strategy = FaultUnawareStrategy()
        plans = strategy.plan_adjacency([blocks], fmaps, list(range(5)), 16)
        assert strategy.refresh_adjacency(plans, [blocks], {}) is plans


class TestClippingStrategy:
    def test_effective_weights_clamped(self):
        strategy = WeightClippingStrategy(threshold=0.5)
        out = strategy.transform_effective_weights(np.array([[3.0, -2.0, 0.1]]))
        np.testing.assert_allclose(out, [[0.5, -0.5, 0.1]])

    def test_master_weights_clamped_after_step(self):
        strategy = WeightClippingStrategy(threshold=0.5)
        model = GCN(4, 8, 3, rng=0)
        for _, param in model.named_parameters():
            if param.data.ndim == 2:
                param.data += 3.0
        strategy.after_optimizer_step(model)
        for _, param in model.named_parameters():
            if param.data.ndim == 2:
                assert np.all(np.abs(param.data) <= 0.5)


class TestNeuronReordering:
    def test_weight_permutation_cached(self):
        strategy = NeuronReorderingStrategy()
        values = np.random.default_rng(0).normal(size=(8, 4))
        cost = np.random.default_rng(1).random((8, 8))
        calls = []

        def cost_fn():
            calls.append(1)
            return cost

        first = strategy.weight_storage_permutation("w", values, cost_fn)
        second = strategy.weight_storage_permutation("w", values, cost_fn)
        np.testing.assert_array_equal(first, second)
        assert len(calls) == 1

    def test_no_permutation_when_no_faults(self):
        strategy = NeuronReorderingStrategy()
        values = np.ones((4, 4))
        assert strategy.weight_storage_permutation("w", values, lambda: np.zeros((4, 4))) is None

    def test_adjacency_group_permutation_valid(self):
        blocks, fmaps = make_blocks_and_maps(num_blocks=2, num_crossbars=4)
        strategy = NeuronReorderingStrategy(group_size=4)
        plans = strategy.plan_adjacency([blocks], fmaps, list(range(4)), 16)
        for mapping in plans[0].blocks:
            assert sorted(mapping.row_permutation.tolist()) == list(range(16))

    def test_refresh_adjacency_recomputes_permutations(self):
        blocks, fmaps = make_blocks_and_maps(num_blocks=2, num_crossbars=4)
        strategy = NeuronReorderingStrategy(group_size=4)
        plans = strategy.plan_adjacency([blocks], fmaps, list(range(4)), 16)
        by_id = {i: fmaps[i] for i in range(4)}
        refreshed = strategy.refresh_adjacency(plans, [blocks], by_id)
        assert [m.crossbar_index for m in refreshed[0].blocks] == [
            m.crossbar_index for m in plans[0].blocks
        ]

    @staticmethod
    def _assert_same_plans(got, want):
        assert len(got) == len(want)
        for plan, reference in zip(got, want):
            assert plan.pruned_crossbars == reference.pruned_crossbars
            assert plan.relaxed_blocks == reference.relaxed_blocks
            assert len(plan.blocks) == len(reference.blocks)
            for m, r in zip(plan.blocks, reference.blocks):
                assert (m.block_index, m.crossbar_index) == (r.block_index, r.crossbar_index)
                assert m.row_permutation.dtype == r.row_permutation.dtype
                np.testing.assert_array_equal(m.row_permutation, r.row_permutation)
                assert type(m.cost) is type(r.cost) and m.cost == r.cost
                assert type(m.sa1_mismatch) is type(r.sa1_mismatch)
                assert m.sa1_mismatch == r.sa1_mismatch

    # (6, 8) and (8, 16): fewer rows than group_size; (18, 4) and (20, 3):
    # rows not divisible by it.  Density 0 makes every map fault-free.
    @pytest.mark.parametrize("size,group_size", [(16, 4), (6, 8), (8, 16), (18, 4), (20, 3), (16, 1)])
    @pytest.mark.parametrize("density", [0.0, 0.15])
    @pytest.mark.parametrize("as_view", [True, False])
    def test_plan_and_refresh_match_per_block_loop(self, size, group_size, density, as_view):
        rng = np.random.default_rng(size * 31 + group_size)
        batches = []
        for n in (3 * size - 1, size, 2 * size):
            adjacency = CSRMatrix.from_dense((rng.random((n, n)) < 0.2).astype(float))
            view = decompose_adjacency(adjacency, size, size)[0]
            batches.append(view if as_view else list(view))
        model = FaultModel(density, (1, 1), seed=size)
        fmaps = model.generate(5, size, size)
        ids = [20, 21, 22, 23, 24]
        strategy = NeuronReorderingStrategy(group_size=group_size)
        reference = SeedNeuronReordering(group_size=group_size)
        plans = strategy.plan_adjacency(batches, fmaps, ids, size)
        self._assert_same_plans(plans, reference.plan_adjacency(batches, fmaps, ids, size))
        by_id = dict(zip(ids, model.inject_additional(fmaps, 0.1)))
        self._assert_same_plans(
            strategy.refresh_adjacency(plans, batches, by_id),
            reference.refresh_adjacency(plans, batches, by_id),
        )

    def test_refresh_follows_plan_order(self):
        blocks, fmaps = make_blocks_and_maps(num_blocks=4, num_crossbars=4)
        strategy = NeuronReorderingStrategy(group_size=4)
        plan = strategy.plan_adjacency([blocks], fmaps, [3, 5, 7, 9], 16)[0]
        plan = BatchMapping(blocks=plan.blocks[::-1])
        by_id = dict(zip([9, 7, 5, 3], fmaps[::-1]))
        refreshed = strategy.refresh_adjacency([plan], [blocks], by_id)
        self._assert_same_plans(
            refreshed,
            SeedNeuronReordering(group_size=4).refresh_adjacency([plan], [blocks], by_id),
        )
        assert [m.block_index for m in refreshed[0].blocks] == [3, 2, 1, 0]

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            NeuronReorderingStrategy(group_size=0)


class TestFaReStrategy:
    def test_plan_uses_algorithm1(self):
        blocks, fmaps = make_blocks_and_maps(num_blocks=3, num_crossbars=6, seed=3)
        strategy = FaReStrategy(row_method="greedy")
        plans = strategy.plan_adjacency([blocks, blocks], fmaps, list(range(6)), 16)
        assert len(plans) == 2
        assert isinstance(plans[0], BatchMapping)
        used = [m.crossbar_index for m in plans[0].blocks]
        assert len(set(used)) == len(used)

    def test_refresh_keeps_assignment(self):
        blocks, fmaps = make_blocks_and_maps(num_blocks=3, num_crossbars=6, seed=4)
        strategy = FaReStrategy(row_method="greedy")
        plans = strategy.plan_adjacency([blocks], fmaps, list(range(6)), 16)
        by_id = {i: fmaps[i] for i in range(6)}
        refreshed = strategy.refresh_adjacency(plans, [blocks], by_id)
        assert [m.crossbar_index for m in refreshed[0].blocks] == [
            m.crossbar_index for m in plans[0].blocks
        ]

    def test_clipping_behaviour(self):
        strategy = FaReStrategy(clipping_threshold=0.25)
        out = strategy.transform_effective_weights(np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(out, [[0.25, -0.25]])

    def test_constructor_kwargs(self):
        strategy = FaReStrategy(sa1_weight=2.0, row_method="hungarian", prune_crossbars=False)
        assert strategy.mapper.sa1_weight == 2.0
        assert strategy.mapper.row_method == "hungarian"
        assert not strategy.mapper.prune_crossbars
