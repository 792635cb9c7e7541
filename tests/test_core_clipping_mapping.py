"""Tests for weight clipping and the fault-aware mapping algorithm (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clipping import WeightClipper
from repro.core.mapping import (
    BatchMapping,
    BlockMapping,
    FaultAwareMapper,
    sequential_mapping,
)
from repro.hardware.faults import FaultMap, FaultModel, apply_faults_to_binary
from repro.nn.gcn import GCN

from reference.mapping import block_crossbar_cost, block_row_cost_matrix


class TestWeightClipper:
    def test_clip_array(self):
        clipper = WeightClipper(0.5)
        out = clipper.clip_array(np.array([-2.0, 0.2, 3.0]))
        np.testing.assert_allclose(out, [-0.5, 0.2, 0.5])

    def test_clip_model_only_2d(self):
        model = GCN(4, 8, 3, rng=0)
        for _, param in model.named_parameters():
            if param.data.ndim == 2:
                param.data += 10.0
        clipped = WeightClipper(1.0).clip_model(model)
        assert clipped > 0
        for _, param in model.named_parameters():
            if param.data.ndim == 2:
                assert np.all(np.abs(param.data) <= 1.0)

    def test_clip_model_named_subset(self):
        model = GCN(4, 8, 3, rng=0)
        names = [name for name, p in model.named_parameters() if p.data.ndim == 2]
        target = names[0]
        for _, param in model.named_parameters():
            param.data = np.full_like(param.data, 5.0)
        WeightClipper(1.0).clip_model(model, parameter_names=[target])
        params = dict(model.named_parameters())
        assert np.all(np.abs(params[target].data) <= 1.0)
        assert np.all(params[names[1]].data == 5.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            WeightClipper(0.0)

    def test_suggest_threshold_positive(self):
        model = GCN(4, 8, 3, rng=0)
        assert WeightClipper.suggest_threshold(model) > 0


class TestRowCostMatrix:
    def test_zero_for_fault_free(self):
        block = np.eye(8)
        total, sa0, sa1 = block_row_cost_matrix(block, FaultMap.empty(8, 8))
        assert total.sum() == 0

    def test_sa0_counts_deleted_edges(self):
        block = np.zeros((4, 4))
        block[0, 0] = 1.0
        fmap = FaultMap.from_indices((4, 4), sa0_indices=[(2, 0)])
        total, sa0, sa1 = block_row_cost_matrix(block, fmap)
        # Only mapping block row 0 onto crossbar row 2 deletes the edge.
        assert sa0[0, 2] == 1.0
        assert sa0.sum() == 1.0
        assert sa1.sum() == 0.0

    def test_sa1_counts_spurious_edges(self):
        block = np.ones((3, 3))
        block[1, :] = 0.0
        fmap = FaultMap.from_indices((3, 3), sa1_indices=[(0, 0)])
        total, sa0, sa1 = block_row_cost_matrix(block, fmap, sa1_weight=2.0)
        # Only the all-zero block row 1 suffers a spurious edge on crossbar row 0.
        assert sa1[1, 0] == 1.0
        assert total[1, 0] == 2.0

    def test_sa1_weighting(self):
        block = np.zeros((2, 2))
        fmap = FaultMap.from_indices((2, 2), sa1_indices=[(0, 0)])
        total_w1, _, _ = block_row_cost_matrix(block, fmap, sa1_weight=1.0)
        total_w5, _, _ = block_row_cost_matrix(block, fmap, sa1_weight=5.0)
        assert total_w5[0, 0] == 5 * total_w1[0, 0]

    def test_figure1b_example_cost(self):
        """The Fig. 1(b) example: identity mapping incurs 3 mismatches."""
        ideal = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 1, 0],
                [1, 0, 0, 1],
                [0, 0, 0, 0],
            ],
            dtype=float,
        )
        faulty = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 0, 0],
            ],
            dtype=float,
        )
        diff = ideal != faulty
        sa1 = diff & (faulty == 1)
        sa0 = diff & (faulty == 0)
        fmap = FaultMap(sa0, sa1)
        total, _, _ = block_row_cost_matrix(ideal, fmap, sa1_weight=1.0)
        identity_cost = total[np.arange(4), np.arange(4)].sum()
        assert identity_cost == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            block_row_cost_matrix(np.zeros((3, 3)), FaultMap.empty(4, 4))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            block_row_cost_matrix(np.zeros((2, 2)), FaultMap.empty(2, 2), sa1_weight=-1)


class TestBlockCrossbarCost:
    def test_fault_free_shortcut(self):
        cost, perm, sa1 = block_crossbar_cost(np.eye(6), FaultMap.empty(6, 6))
        assert cost == 0.0 and sa1 == 0.0
        np.testing.assert_array_equal(perm, np.arange(6))

    def test_permutation_avoids_fault(self):
        # One SA1 fault on row 0; block row 0 has a 1 in that column, all other
        # rows are zero there -> the matcher should place a compatible row on it.
        block = np.zeros((4, 4))
        block[0, 0] = 1.0
        fmap = FaultMap.from_indices((4, 4), sa1_indices=[(0, 0)])
        cost, perm, sa1 = block_crossbar_cost(block, fmap, sa1_weight=4.0, method="hungarian")
        assert cost == 0.0
        assert perm[0] == 0  # block row 0 (which has the 1) sits on the SA1 cell

    @pytest.mark.parametrize("method", ["greedy", "hungarian", "bsuitor"])
    def test_methods_return_valid_permutations(self, method, small_fault_map, rng):
        block = (rng.random((16, 16)) > 0.9).astype(float)
        cost, perm, _ = block_crossbar_cost(block, small_fault_map, method=method)
        assert sorted(perm.tolist()) == list(range(16))
        assert cost >= 0

    def test_cost_not_worse_than_identity(self, small_fault_map, rng):
        block = (rng.random((16, 16)) > 0.9).astype(float)
        total, _, _ = block_row_cost_matrix(block, small_fault_map, sa1_weight=4.0)
        identity_cost = float(total[np.arange(16), np.arange(16)].sum())
        cost, _, _ = block_crossbar_cost(block, small_fault_map, sa1_weight=4.0, method="hungarian")
        assert cost <= identity_cost + 1e-9


class TestSequentialMapping:
    def test_round_robin(self):
        mapping = sequential_mapping(5, 8, 3)
        assert [m.crossbar_index for m in mapping.blocks] == [0, 1, 2, 0, 1]
        for m in mapping.blocks:
            np.testing.assert_array_equal(m.row_permutation, np.arange(8))

    def test_requires_crossbars(self):
        with pytest.raises(ValueError):
            sequential_mapping(2, 8, 0)

    def test_cost_defaults_to_zero_not_nan(self):
        """NaN costs used to poison BatchMapping.total_cost for baselines."""
        mapping = sequential_mapping(4, 8, 2)
        assert mapping.total_cost == 0.0
        assert not np.isnan(mapping.total_cost)

    def test_reports_true_identity_mismatch_cost(self):
        block = np.zeros((4, 4))
        block[0, 0] = 1.0  # lands on the SA0 cell below (deleted edge)
        fmap = FaultMap.from_indices(
            (4, 4), sa0_indices=[(0, 0)], sa1_indices=[(1, 1)]
        )
        mapping = sequential_mapping(
            1, 4, 1, blocks=[block], fault_maps=[fmap], sa1_weight=4.0
        )
        # One SA0 mismatch plus one weighted SA1 mismatch (block[1, 1] == 0).
        assert mapping.blocks[0].cost == 1.0 + 4.0 * 1.0
        assert mapping.blocks[0].sa1_mismatch == 1.0
        assert mapping.total_cost == 5.0

    def test_fault_free_costs_zero(self):
        block = np.ones((4, 4))
        mapping = sequential_mapping(
            1, 4, 1, blocks=[block], fault_maps=[FaultMap.empty(4, 4)]
        )
        assert mapping.blocks[0].cost == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            sequential_mapping(2, 4, 1, blocks=[np.zeros((4, 4))])
        with pytest.raises(ValueError):
            sequential_mapping(
                1, 4, 2, blocks=[np.zeros((4, 4))], fault_maps=[FaultMap.empty(4, 4)]
            )


class TestFaultAwareMapper:
    @staticmethod
    def _random_blocks(num_blocks, size, density, seed):
        rng = np.random.default_rng(seed)
        return [(rng.random((size, size)) < density).astype(float) for _ in range(num_blocks)]

    @staticmethod
    def _fault_maps(num, size, density, ratio, seed):
        model = FaultModel(density, ratio, seed=seed)
        return model.generate(num, size, size)

    def test_mapping_is_injective(self):
        blocks = self._random_blocks(4, 16, 0.05, 0)
        fmaps = self._fault_maps(6, 16, 0.05, (9, 1), 1)
        mapper = FaultAwareMapper(row_method="greedy")
        mapping = mapper.map_blocks(blocks, fmaps)
        crossbars = [m.crossbar_index for m in mapping.blocks]
        assert len(set(crossbars)) == len(crossbars)
        assert sorted(m.block_index for m in mapping.blocks) == list(range(4))

    def test_cost_beats_sequential(self):
        """Algorithm 1 must not corrupt the adjacency more than naive mapping."""
        blocks = self._random_blocks(5, 16, 0.03, 2)
        fmaps = self._fault_maps(10, 16, 0.08, (1, 1), 3)
        mapper = FaultAwareMapper(sa1_weight=4.0, row_method="hungarian")
        mapping = mapper.map_blocks(blocks, fmaps)

        def corrupted_entries(mapping_obj):
            total = 0
            for m in mapping_obj.blocks:
                block = blocks[m.block_index]
                fmap = fmaps[m.crossbar_index]
                stored = np.zeros_like(block)
                stored[m.row_permutation] = block
                read = apply_faults_to_binary(stored, fmap)[m.row_permutation]
                total += int(np.sum(read != block))
            return total

        naive = sequential_mapping(5, 16, 10)
        assert corrupted_entries(mapping) <= corrupted_entries(naive)

    def test_more_blocks_than_crossbars_time_multiplexes(self):
        blocks = self._random_blocks(5, 8, 0.1, 0)
        fmaps = self._fault_maps(2, 8, 0.1, (9, 1), 0)
        mapping = FaultAwareMapper().map_blocks(blocks, fmaps)
        assert sorted(m.block_index for m in mapping.blocks) == list(range(5))
        # Within each chunk of two blocks the crossbars are distinct.
        chunks = [mapping.blocks[i : i + 2] for i in range(0, 5, 2)]
        for chunk in chunks:
            used = [m.crossbar_index for m in chunk]
            assert len(set(used)) == len(used)

    def test_no_crossbars_rejected(self):
        blocks = self._random_blocks(2, 8, 0.1, 0)
        with pytest.raises(ValueError):
            FaultAwareMapper().map_blocks(blocks, [])

    def test_empty_blocks(self):
        mapping = FaultAwareMapper().map_blocks([], [])
        assert len(mapping) == 0

    def test_crossbar_ids_respected(self):
        blocks = self._random_blocks(3, 8, 0.1, 4)
        fmaps = self._fault_maps(5, 8, 0.05, (9, 1), 5)
        ids = [10, 11, 12, 13, 14]
        mapping = FaultAwareMapper().map_blocks(blocks, fmaps, crossbar_ids=ids)
        assert all(m.crossbar_index in ids for m in mapping.blocks)

    def test_pruning_skips_hopeless_crossbars(self):
        # One crossbar is saturated with SA1 faults; with spare crossbars
        # available it should not be used.
        blocks = self._random_blocks(2, 8, 0.02, 6)
        bad = FaultMap(np.zeros((8, 8), bool), np.ones((8, 8), bool))
        good = [FaultMap.empty(8, 8) for _ in range(3)]
        mapper = FaultAwareMapper(prune_crossbars=True)
        mapping = mapper.map_blocks(blocks, [bad] + good, crossbar_ids=[0, 1, 2, 3])
        used = {m.crossbar_index for m in mapping.blocks}
        assert 0 not in used
        assert 0 in mapping.pruned_crossbars

    def test_relaxation_when_blocks_equal_crossbars(self):
        # Every crossbar is fully SA1-faulty, so the sparsest block is relaxed.
        blocks = [np.zeros((4, 4)), np.ones((4, 4))]
        all_bad = [FaultMap(np.zeros((4, 4), bool), np.ones((4, 4), bool)) for _ in range(2)]
        mapper = FaultAwareMapper(prune_crossbars=False, relax_sparsest_block=True)
        mapping = mapper.map_blocks(blocks, all_bad)
        assert mapping.relaxed_blocks == [0]
        assert sorted(m.block_index for m in mapping.blocks) == [0, 1]

    def test_update_row_permutations_keeps_assignment(self):
        blocks = self._random_blocks(3, 16, 0.05, 7)
        fmaps = self._fault_maps(5, 16, 0.05, (9, 1), 8)
        mapper = FaultAwareMapper()
        mapping = mapper.map_blocks(blocks, fmaps)
        new_maps = {m.crossbar_index: fmaps[m.crossbar_index] for m in mapping.blocks}
        refreshed = mapper.update_row_permutations(mapping, blocks, new_maps)
        assert [m.crossbar_index for m in refreshed.blocks] == [
            m.crossbar_index for m in mapping.blocks
        ]

    def test_sa1_weight_validation(self):
        with pytest.raises(ValueError):
            FaultAwareMapper(sa1_weight=0.5)

    def test_batch_mapping_accessors(self):
        blocks = self._random_blocks(2, 8, 0.1, 9)
        fmaps = self._fault_maps(3, 8, 0.05, (9, 1), 10)
        mapping = FaultAwareMapper().map_blocks(blocks, fmaps)
        assert isinstance(mapping, BatchMapping)
        assert mapping.total_cost >= 0
        assert mapping.crossbar_for_block(0).block_index == 0
        with pytest.raises(KeyError):
            mapping.crossbar_for_block(99)

    def test_crossbar_for_block_index_survives_mutation(self):
        """The lazily built O(1) lookup must notice list/index mutations."""
        mapping = sequential_mapping(3, 4, 2)
        assert mapping.crossbar_for_block(1).block_index == 1  # builds index
        extra = BlockMapping(
            block_index=7,
            crossbar_index=0,
            row_permutation=np.arange(4, dtype=np.int64),
            cost=0.0,
        )
        mapping.blocks.append(extra)
        assert mapping.crossbar_for_block(7) is extra
        mapping.blocks[0].block_index = 42  # in-place renumber (chunk merging)
        assert mapping.crossbar_for_block(42).block_index == 42
        with pytest.raises(KeyError):
            mapping.crossbar_for_block(0)

    def test_crossbar_for_block_sees_slot_replacement(self):
        """Replacing a list slot with a same-index object must not serve the
        removed object from the cached lookup."""
        mapping = sequential_mapping(2, 4, 1)
        assert mapping.crossbar_for_block(0).cost == 0.0  # builds index
        replacement = BlockMapping(
            block_index=0,
            crossbar_index=0,
            row_permutation=np.arange(4, dtype=np.int64),
            cost=123.0,
        )
        mapping.blocks[0] = replacement
        assert mapping.crossbar_for_block(0) is replacement


class TestMappingProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_mapping_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        num_blocks = int(rng.integers(1, 5))
        num_crossbars = int(rng.integers(num_blocks, num_blocks + 4))
        blocks = [(rng.random((8, 8)) < 0.1).astype(float) for _ in range(num_blocks)]
        fmaps = FaultModel(0.1, (1, 1), seed=seed).generate(num_crossbars, 8, 8)
        mapping = FaultAwareMapper(row_method="greedy").map_blocks(blocks, fmaps)
        used = [m.crossbar_index for m in mapping.blocks]
        assert len(set(used)) == len(used)
        for m in mapping.blocks:
            assert sorted(m.row_permutation.tolist()) == list(range(8))
