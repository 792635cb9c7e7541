"""Tests for the batched mapping cost engine.

The headline guarantee is *bit-identical equivalence*: routing Algorithm 1
through :class:`MappingCostEngine` must return exactly the same
:class:`BatchMapping` (assignments, permutations, costs, SA1 mismatches,
pruned/relaxed lists) as the seed per-pair loop
(:class:`reference.mapping.SeedLoopMapper`), across fault rates,
``sa1_weight`` values and all three row-matching methods.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_engine import (
    CostEngineStats,
    MappingCostEngine,
    block_fingerprint,
)
from repro.core.mapping import FaultAwareMapper
from repro.hardware.faults import FaultMap, FaultModel
from repro.matching import bipartite

from reference.mapping import (
    SeedLoopMapper,
    SeedPairLoop,
    block_crossbar_cost,
    block_row_cost_matrix,
)


def random_blocks(rng, num_blocks, size, density):
    return [
        (rng.random((size, size)) < density).astype(float) for _ in range(num_blocks)
    ]


def assert_mappings_identical(reference, candidate):
    assert reference.pruned_crossbars == candidate.pruned_crossbars
    assert reference.relaxed_blocks == candidate.relaxed_blocks
    assert len(reference.blocks) == len(candidate.blocks)
    for ref, got in zip(reference.blocks, candidate.blocks):
        assert ref.block_index == got.block_index
        assert ref.crossbar_index == got.crossbar_index
        assert ref.cost == got.cost
        assert ref.sa1_mismatch == got.sa1_mismatch
        np.testing.assert_array_equal(ref.row_permutation, got.row_permutation)


METHODS = ["greedy", "hungarian", "bsuitor"]


def zero_cost_pair():
    """A pair whose sa0 and sa1 cost matrices are identically zero.

    The block's ones fill column 0, which no SA0 fault touches, and the only
    SA1 fault sits in that column, where every block row has a one.
    """
    block = np.zeros((4, 4))
    block[:, 0] = 1.0
    return block, FaultMap.from_indices((4, 4), sa1_indices=[(2, 0)])


def refresh_by_id(mapping, fmaps):
    return {m.crossbar_index: fmaps[m.crossbar_index] for m in mapping.blocks}


def make_mappers(method, sa1_weight=4.0, prune=True, relax=True):
    kwargs = dict(
        sa1_weight=sa1_weight,
        row_method=method,
        prune_crossbars=prune,
        relax_sparsest_block=relax,
    )
    return SeedLoopMapper(**kwargs), FaultAwareMapper(**kwargs)


# --------------------------------------------------------------------------- #
# Equivalence guarantee
# --------------------------------------------------------------------------- #
class TestEngineEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_map_blocks_identical_to_seed_loop(self, seed):
        """Property: random shapes/rates/weights/methods, identical outputs."""
        rng = np.random.default_rng(seed)
        num_blocks = int(rng.integers(1, 6))
        num_crossbars = int(rng.integers(1, 9))
        size = int(rng.choice([4, 8, 16]))
        method = ["greedy", "hungarian", "bsuitor"][seed % 3]
        sa1_weight = float(rng.choice([1.0, 1.3, 2.0, 4.0, 7.5]))
        fault_rate = float(rng.uniform(0.0, 0.25))
        ratio = (9.0, 1.0) if seed % 2 else (1.0, 1.0)
        blocks = random_blocks(rng, num_blocks, size, float(rng.uniform(0.02, 0.4)))
        fmaps = FaultModel(fault_rate, ratio, seed=seed + 1).generate(
            num_crossbars, size, size
        )
        seed_mapper, engine_mapper = make_mappers(
            method,
            sa1_weight=sa1_weight,
            prune=bool(seed % 2),
            relax=bool((seed // 2) % 2),
        )
        assert_mappings_identical(
            seed_mapper.map_blocks(blocks, fmaps),
            engine_mapper.map_blocks(blocks, fmaps),
        )

    @pytest.mark.parametrize("method", ["greedy", "hungarian", "bsuitor"])
    def test_repeat_run_hits_cache_and_stays_identical(self, method):
        rng = np.random.default_rng(7)
        blocks = random_blocks(rng, 4, 16, 0.1)
        fmaps = FaultModel(0.1, (1, 1), seed=8).generate(6, 16, 16)
        seed_mapper, engine_mapper = make_mappers(method)
        reference = seed_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, engine_mapper.map_blocks(blocks, fmaps))
        stats = engine_mapper.cost_engine.stats
        misses_after_first = stats.cache_misses
        assert_mappings_identical(reference, engine_mapper.map_blocks(blocks, fmaps))
        assert stats.cache_misses == misses_after_first
        assert stats.cache_hits > 0

    def test_update_row_permutations_identical_and_cached(self):
        rng = np.random.default_rng(3)
        blocks = random_blocks(rng, 3, 16, 0.08)
        fmaps = FaultModel(0.08, (9, 1), seed=4).generate(5, 16, 16)
        seed_mapper, engine_mapper = make_mappers("greedy")
        reference = seed_mapper.map_blocks(blocks, fmaps)
        mapping = engine_mapper.map_blocks(blocks, fmaps)
        by_id = {m.crossbar_index: fmaps[m.crossbar_index] for m in mapping.blocks}
        refreshed_ref = seed_mapper.update_row_permutations(reference, blocks, by_id)
        solver_before = engine_mapper.cost_engine.stats.solver_pairs
        refreshed = engine_mapper.update_row_permutations(mapping, blocks, by_id)
        assert_mappings_identical(refreshed_ref, refreshed)
        # The refresh re-queries pairs already solved during map_blocks: with
        # unchanged BIST maps it must be pure cache hits, zero solver calls.
        assert engine_mapper.cost_engine.stats.solver_pairs == solver_before

    @pytest.mark.parametrize("sa1_weight", [4.0, 7.5, 1.3])
    @pytest.mark.parametrize("method", METHODS)
    def test_refresh_after_fault_delta_at_crossbar_size(self, method, sa1_weight):
        """The post-deployment refresh at 64×64: every map gains 1 % faults,
        so every pair of the kept plan is solved again in one batched call,
        on the int32 stack (integral weight), the float64 one (7.5) and the
        one combined from separately read counts (1.3, not dyadic)."""
        rng = np.random.default_rng(640)
        blocks = random_blocks(rng, 5, 64, 0.1)
        model = FaultModel(0.05, (9, 1), seed=641)
        fmaps = model.generate(7, 64, 64)
        seed_mapper, engine_mapper = make_mappers(method, sa1_weight=sa1_weight)
        reference = seed_mapper.map_blocks(blocks, fmaps)
        mapping = engine_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, mapping)

        by_id = refresh_by_id(mapping, model.inject_additional(fmaps, 0.01))
        stats = engine_mapper.cost_engine.stats
        solver_before = stats.solver_pairs
        refreshed = engine_mapper.update_row_permutations(mapping, blocks, by_id)
        assert_mappings_identical(
            seed_mapper.update_row_permutations(reference, blocks, by_id), refreshed
        )
        assert stats.solver_pairs == solver_before + len(mapping)
        # A second refresh on the unchanged maps is all cache hits.
        solver_after = stats.solver_pairs
        assert_mappings_identical(
            refreshed, engine_mapper.update_row_permutations(mapping, blocks, by_id)
        )
        assert stats.solver_pairs == solver_after

    @pytest.mark.parametrize("method", METHODS)
    def test_chunked_solves_identical(self, method):
        """One fault map per dense contraction chunk and one pair per sparse
        chunk: the plan and the refresh after a delta stay bit-identical."""
        rng = np.random.default_rng(17)
        blocks = random_blocks(rng, 4, 8, 0.2)
        model = FaultModel(0.15, (1, 1), seed=18)
        fmaps = model.generate(6, 8, 8)
        seed_mapper, engine_mapper = make_mappers(method)
        engine_mapper.cost_engine.MAX_CHUNK_CELLS = 1
        reference = seed_mapper.map_blocks(blocks, fmaps)
        mapping = engine_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, mapping)
        by_id = refresh_by_id(mapping, model.inject_additional(fmaps, 0.05))
        assert_mappings_identical(
            seed_mapper.update_row_permutations(reference, blocks, by_id),
            engine_mapper.update_row_permutations(mapping, blocks, by_id),
        )

    @pytest.mark.parametrize("sa1_weight", [4.0, 7.5, 1.3])
    def test_greedy_identical_at_crossbar_size(self, sa1_weight):
        """64×64 crossbars, as the paper-scale runs plan.  Every pair leaves
        the batch greedy a remainder after its minimum-cost row pass, on the
        int32 stack (integral weight) and the float64 one (7.5)."""
        rng = np.random.default_rng(64)
        blocks = random_blocks(rng, 4, 64, 0.1)
        fmaps = FaultModel(0.05, (9, 1), seed=65).generate(6, 64, 64)
        seed_mapper, engine_mapper = make_mappers("greedy", sa1_weight=sa1_weight)
        assert_mappings_identical(
            seed_mapper.map_blocks(blocks, fmaps),
            engine_mapper.map_blocks(blocks, fmaps),
        )

    def test_paper_crossbar_size_with_forced_chunking(self):
        """128×128 at w = 4, the paper-scale plan's shape, with one fault map
        per product chunk and one pair per gathered chunk: the plan and the
        refresh after a delta stay bit-identical."""
        rng = np.random.default_rng(128)
        blocks = random_blocks(rng, 3, 128, 0.04)
        model = FaultModel(0.05, (9, 1), seed=129)
        fmaps = model.generate(4, 128, 128)
        seed_mapper, engine_mapper = make_mappers("greedy", sa1_weight=4.0)
        engine_mapper.cost_engine.MAX_CHUNK_CELLS = 1
        reference = seed_mapper.map_blocks(blocks, fmaps)
        mapping = engine_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, mapping)
        by_id = refresh_by_id(mapping, model.inject_additional(fmaps, 0.01))
        assert_mappings_identical(
            seed_mapper.update_row_permutations(reference, blocks, by_id),
            engine_mapper.update_row_permutations(mapping, blocks, by_id),
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_zero_cost_pairs_from_column_occupancy(self, seed):
        """Blocks whose ones avoid the SA0 columns and fill the SA1 columns
        make many pairs zero-cost before any product: the count of such
        pairs is the seed's (both of its component matrices all zero) and
        every entry is the seed loop's."""
        rng = np.random.default_rng(seed)
        size = int(rng.choice([4, 8, 16]))
        method = METHODS[seed % 3]
        sa1_weight = float(rng.choice([1.0, 1.3, 4.0, 7.5]))
        fault_cols = rng.permutation(size)[: max(1, size // 4)]
        sa0_cols, sa1_cols = fault_cols[::2], fault_cols[1::2]
        fmaps = []
        for _ in range(int(rng.integers(1, 7))):
            sa0 = np.zeros((size, size), dtype=bool)
            sa1 = np.zeros((size, size), dtype=bool)
            sa0[:, sa0_cols] = rng.random((size, sa0_cols.size)) < 0.3
            sa1[:, sa1_cols] = rng.random((size, sa1_cols.size)) < 0.3
            if rng.random() < 0.3:  # a stray fault: no pair on this map is free
                sa0[rng.integers(size), rng.integers(size)] = True
                sa1 &= ~sa0
            fmaps.append(FaultMap(sa0, sa1))
        blocks = []
        for _ in range(int(rng.integers(1, 6))):
            block = (rng.random((size, size)) < 0.3).astype(float)
            block[:, sa0_cols] = 0.0
            block[:, sa1_cols] = 1.0
            if rng.random() < 0.3:  # a one on an SA0 column or a gap on an SA1 one
                block[rng.integers(size), fault_cols[rng.integers(fault_cols.size)]] = (
                    rng.random() < 0.5
                )
            blocks.append(block)
        expected_zero = sum(
            not (sa0_cost.any() or sa1_cost.any())
            for fmap in fmaps
            if not fmap.is_fault_free()
            for block in blocks
            for _, sa0_cost, sa1_cost in [
                block_row_cost_matrix(block, fmap, sa1_weight)
            ]
        )
        seed_loop = SeedPairLoop(sa1_weight, method)
        engine = MappingCostEngine(sa1_weight=sa1_weight, row_method=method)
        ref_costs, ref_sa1, ref_perm = seed_loop.plan_pairwise(blocks, fmaps)
        costs, sa1, perm = engine.plan_pairwise(blocks, fmaps)
        # Distinct random blocks and maps almost never repeat; the count is
        # the seed's only over unique pairs.
        if engine.stats.duplicate_pairs == 0:
            assert engine.stats.zero_cost_pairs == expected_zero
        assert engine.stats.zero_cost_pairs > 0 or expected_zero == 0
        np.testing.assert_array_equal(costs, ref_costs)
        np.testing.assert_array_equal(sa1, ref_sa1)
        for i in range(len(blocks)):
            for j in range(len(fmaps)):
                np.testing.assert_array_equal(perm(i, j), ref_perm(i, j))
        pair_engine = MappingCostEngine(sa1_weight=sa1_weight, row_method=method)
        pairs = [(b, f) for b in blocks for f in fmaps]
        results = pair_engine.pair_results(*zip(*pairs))
        for (cost, permutation, mismatch), ref in zip(
            results, seed_loop.pair_results(*zip(*pairs))
        ):
            assert (cost, mismatch) == (ref[0], ref[2])
            np.testing.assert_array_equal(permutation, ref[1])

    def test_more_blocks_than_crossbars_chunking(self):
        rng = np.random.default_rng(11)
        blocks = random_blocks(rng, 9, 8, 0.15)
        fmaps = FaultModel(0.1, (9, 1), seed=12).generate(4, 8, 8)
        seed_mapper, engine_mapper = make_mappers("greedy")
        assert_mappings_identical(
            seed_mapper.map_blocks(blocks, fmaps),
            engine_mapper.map_blocks(blocks, fmaps),
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_batched_exact_solvers_identical_to_seed_loop(self, seed):
        """The lockstep Hungarian/b-Suitor stack solvers must reproduce the
        seed loop bit for bit across fault densities and sa1 weights —
        including heavily tied cost matrices, where only a faithful replay
        of the scalar schedule keeps the tie-breaking identical."""
        rng = np.random.default_rng(seed)
        num_blocks = int(rng.integers(1, 6))
        num_crossbars = int(rng.integers(1, 9))
        size = int(rng.choice([4, 8, 16]))
        method = ["hungarian", "bsuitor"][seed % 2]
        sa1_weight = float(rng.choice([1.0, 1.3, 4.0, 7.5]))
        fault_rate = float(rng.choice([0.02, 0.1, 0.3]))
        # Dense blocks against dense fault maps make near-constant cost
        # matrices — the all-ties regime.
        density = float(rng.choice([0.05, 0.5, 1.0]))
        blocks = random_blocks(rng, num_blocks, size, density)
        fmaps = FaultModel(fault_rate, (1.0, 1.0), seed=seed + 1).generate(
            num_crossbars, size, size
        )
        seed_mapper, engine_mapper = make_mappers(method, sa1_weight=sa1_weight)
        assert_mappings_identical(
            seed_mapper.map_blocks(blocks, fmaps), engine_mapper.map_blocks(blocks, fmaps)
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_no_scalar_solver_on_any_engine_path(self, method, monkeypatch):
        """Plans, the refresh after a fault delta and zero-cost pairs all
        resolve through the batched stack solve: with every scalar row
        solver made to raise, both front-ends still match the seed loop."""
        rng = np.random.default_rng(21)
        blocks = random_blocks(rng, 4, 8, 0.3)
        model = FaultModel(0.2, (1, 1), seed=22)
        fmaps = model.generate(6, 8, 8)
        new_maps = model.inject_additional(fmaps, 0.05)
        zero_block, zero_map = zero_cost_pair()
        seed_mapper, engine_mapper = make_mappers(method)
        reference = seed_mapper.map_blocks(blocks, fmaps)
        by_id = refresh_by_id(reference, new_maps)
        refreshed_ref = seed_mapper.update_row_permutations(reference, blocks, by_id)
        zero_ref = block_crossbar_cost(zero_block, zero_map, 4.0, method=method)

        def scalar_solver(cost):
            raise AssertionError("the cost engine called a scalar row solver")

        for name in list(bipartite.SOLVERS):
            monkeypatch.setitem(bipartite.SOLVERS, name, scalar_solver)

        mapping = engine_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, mapping)
        assert_mappings_identical(
            refreshed_ref,
            engine_mapper.update_row_permutations(mapping, blocks, by_id),
        )
        _, _, provider = MappingCostEngine(row_method=method).plan_pairwise(
            [zero_block], [zero_map]
        )
        np.testing.assert_array_equal(provider(0, 0), zero_ref[1])
        [(cost, perm, sa1)] = MappingCostEngine(row_method=method).pair_results(
            [zero_block], [zero_map]
        )
        assert (cost, sa1) == (zero_ref[0], zero_ref[2])
        np.testing.assert_array_equal(perm, zero_ref[1])

    @pytest.mark.parametrize("sa1_weight", [4.0, 7.5, 1.3])
    def test_one_product_per_chunk_on_every_engine_path(self, sa1_weight, monkeypatch):
        """Every pair cost comes from the one product: with ``np.tensordot``
        made to raise, plans (dense and chunked), the refresh after a fault
        delta and the warm re-plan still match the seed loop."""
        rng = np.random.default_rng(23)
        blocks = random_blocks(rng, 4, 8, 0.3)
        model = FaultModel(0.2, (1, 1), seed=24)
        fmaps = model.generate(6, 8, 8)
        new_maps = model.inject_additional(fmaps, 0.05)
        seed_mapper, engine_mapper = make_mappers("greedy", sa1_weight=sa1_weight)
        reference = seed_mapper.map_blocks(blocks, fmaps)
        by_id = refresh_by_id(reference, new_maps)
        refreshed_ref = seed_mapper.update_row_permutations(reference, blocks, by_id)
        replanned_ref = seed_mapper.map_blocks(blocks, new_maps)

        def tensordot(*args, **kwargs):
            raise AssertionError("the cost engine called np.tensordot")

        monkeypatch.setattr(np, "tensordot", tensordot)
        mapping = engine_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, mapping)
        assert_mappings_identical(
            refreshed_ref,
            engine_mapper.update_row_permutations(mapping, blocks, by_id),
        )
        assert_mappings_identical(
            replanned_ref, engine_mapper.map_blocks(blocks, new_maps)
        )
        _, chunked = make_mappers("greedy", sa1_weight=sa1_weight)
        chunked.cost_engine.MAX_CHUNK_CELLS = 1
        assert_mappings_identical(reference, chunked.map_blocks(blocks, fmaps))

    def test_single_pair_matches_module_function(self):
        rng = np.random.default_rng(5)
        block = random_blocks(rng, 1, 16, 0.1)[0]
        fmap = FaultModel(0.15, (1, 1), seed=6).generate(1, 16, 16)[0]
        engine = MappingCostEngine(sa1_weight=4.0, row_method="greedy")
        ref_cost, ref_perm, ref_sa1 = block_crossbar_cost(
            block, fmap, 4.0, method="greedy"
        )
        [(cost, perm, sa1)] = engine.pair_results([block], [fmap])
        assert cost == ref_cost and sa1 == ref_sa1
        np.testing.assert_array_equal(perm, ref_perm)


# --------------------------------------------------------------------------- #
# Work-avoidance machinery
# --------------------------------------------------------------------------- #
class TestWorkAvoidance:
    def test_fault_free_crossbars_never_solved(self):
        rng = np.random.default_rng(0)
        blocks = random_blocks(rng, 3, 8, 0.2)
        fmaps = [FaultMap.empty(8, 8) for _ in range(4)]
        engine = MappingCostEngine()
        costs, sa1, provider = engine.plan_pairwise(blocks, fmaps)
        assert not costs.any() and not sa1.any()
        assert engine.stats.solver_pairs == 0
        assert engine.stats.fault_free_pairs == 12
        np.testing.assert_array_equal(provider(0, 0), np.arange(8))

    def test_duplicate_maps_and_blocks_deduplicated(self):
        rng = np.random.default_rng(1)
        base_block = random_blocks(rng, 1, 8, 0.3)[0]
        blocks = [base_block, base_block.copy(), base_block + 0.0]
        fmap = FaultModel(0.3, (1, 1), seed=2).generate(1, 8, 8)[0]
        fmaps = [fmap, fmap.copy(), fmap.copy()]
        engine = MappingCostEngine(row_method="greedy")
        costs, _, _ = engine.plan_pairwise(blocks, fmaps)
        # 9 requested pairs, 1 unique (block, map) combination.
        assert engine.stats.pairs_total == 9
        assert engine.stats.duplicate_pairs == 8
        assert engine.stats.solver_pairs <= 1
        assert np.unique(costs).size == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_cost_pairs_skip_the_solver(self, method):
        block, fmap = zero_cost_pair()
        engine = MappingCostEngine(row_method=method)
        costs, sa1, provider = engine.plan_pairwise([block], [fmap])
        assert engine.stats.solver_pairs == 0
        assert engine.stats.zero_cost_pairs == 1
        assert costs[0, 0] == 0.0 and sa1[0, 0] == 0.0
        # The permutation is the solver's on the all-zero cost matrix, as
        # the never-skipped seed solve returns it (b-Suitor's is not the
        # identity), from both front-ends.
        _, ref_perm, _ = block_crossbar_cost(block, fmap, 4.0, method=method)
        np.testing.assert_array_equal(provider(0, 0), ref_perm)
        pair_engine = MappingCostEngine(row_method=method)
        [(cost, perm, sa1_mismatch)] = pair_engine.pair_results([block], [fmap])
        assert (cost, sa1_mismatch) == (0.0, 0.0)
        assert pair_engine.stats.zero_cost_pairs == 1
        assert pair_engine.stats.solver_pairs == 0
        np.testing.assert_array_equal(perm, ref_perm)

    def test_cache_eviction_bounds_memory(self):
        rng = np.random.default_rng(9)
        engine = MappingCostEngine()
        engine.CACHE_SIZE = 4
        fmaps = FaultModel(0.3, (1, 1), seed=10).generate(10, 4, 4)
        fmaps = [f for f in fmaps if not f.is_fault_free()]
        block = random_blocks(rng, 1, 4, 0.5)[0]
        for fmap in fmaps:
            engine.pair_results([block], [fmap])
        assert len(engine) <= 4
        # Every entry beyond the capacity was dropped — and counted, so cache
        # sizing is observable from the stats instead of silent.
        assert engine.stats.cache_evictions == engine.stats.cache_misses - len(engine)
        assert engine.stats.cache_evictions > 0

    def test_cache_evictions_surface_through_strategy_stats(self):
        from repro.core.strategies import FaReStrategy

        rng = np.random.default_rng(15)
        strategy = FaReStrategy()
        strategy.mapper.cost_engine.CACHE_SIZE = 2
        blocks = random_blocks(rng, 4, 8, 0.3)
        fmaps = FaultModel(0.2, (1, 1), seed=16).generate(6, 8, 8)
        strategy.plan_adjacency([blocks], fmaps, list(range(6)), 8)
        stats = strategy.mapping_engine_stats()
        assert stats["mapping_cache_evictions"] > 0

    def test_clear_cache(self):
        rng = np.random.default_rng(13)
        engine = MappingCostEngine()
        block = random_blocks(rng, 1, 8, 0.3)[0]
        fmap = FaultMap.from_indices((8, 8), sa0_indices=[(0, 0)])
        engine.pair_results([block], [fmap])
        assert len(engine) > 0
        engine.clear_cache()
        assert len(engine) == 0

    def test_shape_mismatch_rejected(self):
        engine = MappingCostEngine()
        block = np.ones((4, 4))
        fmap = FaultMap.from_indices((8, 8), sa0_indices=[(0, 0)])
        with pytest.raises(ValueError):
            engine.plan_pairwise([block], [fmap])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MappingCostEngine(sa1_weight=-1.0)
        with pytest.raises(ValueError, match="row method"):
            MappingCostEngine(row_method="auction")

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sa1_weight_rejected(self, weight):
        """A NaN or infinite weight is refused up front, not deep inside the
        outer Hungarian solve of the first plan."""
        from repro.core.strategies import FaReStrategy

        with pytest.raises(ValueError, match="sa1_weight"):
            MappingCostEngine(sa1_weight=weight)
        with pytest.raises(ValueError, match="sa1_weight"):
            FaultAwareMapper(sa1_weight=weight)
        with pytest.raises(ValueError, match="sa1_weight"):
            FaReStrategy(sa1_weight=weight)


# --------------------------------------------------------------------------- #
# Fingerprints and stats
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_fault_map_fingerprint_identity(self):
        fmap = FaultMap.from_indices((8, 8), sa0_indices=[(1, 2)], sa1_indices=[(3, 4)])
        assert fmap.fingerprint == fmap.copy().fingerprint

    def test_fault_map_fingerprint_distinguishes_types(self):
        sa0_map = FaultMap.from_indices((4, 4), sa0_indices=[(0, 0)])
        sa1_map = FaultMap.from_indices((4, 4), sa1_indices=[(0, 0)])
        assert sa0_map.fingerprint != sa1_map.fingerprint

    def test_fault_map_fingerprint_tracks_mutation(self):
        fmap = FaultMap.empty(4, 4)
        before = fmap.fingerprint
        fmap.sa0[0, 0] = True
        assert fmap.fingerprint != before

    def test_block_fingerprint_pattern_based(self):
        block = np.zeros((4, 4))
        block[1, 2] = 1.0
        scaled = block * 7.5  # same sparsity pattern, different values
        assert block_fingerprint(block) == block_fingerprint(scaled)
        other = np.zeros((4, 4))
        other[2, 1] = 1.0
        assert block_fingerprint(block) != block_fingerprint(other)

    def test_block_fingerprint_includes_shape(self):
        assert block_fingerprint(np.zeros((2, 8))) != block_fingerprint(
            np.zeros((4, 4))
        )


class TestStats:
    def test_as_dict(self):
        stats = CostEngineStats(cache_hits=3, cache_misses=1, solver_pairs=2)
        exported = stats.as_dict()
        assert exported["mapping_cache_hits"] == 3.0
        assert exported["mapping_cache_misses"] == 1.0

    def test_eviction_counter_exported(self):
        stats = CostEngineStats(cache_evictions=2)
        exported = stats.as_dict()
        assert exported["mapping_cache_evictions"] == 2.0


# --------------------------------------------------------------------------- #
# Solver edge cases shared by the seed loop and the engine
# --------------------------------------------------------------------------- #
class TestSolverEdgeCases:
    """Degenerate inputs that stress tie-breaking and feasibility handling.

    Every case is run through all three row methods and checked for
    (a) bit-identical mappings between the seed loop and the engine, and
    (b) structurally valid row permutations
    (:func:`repro.utils.validation.check_permutation`).
    """

    def _check_all_paths(self, blocks, fmaps, method):
        from repro.utils.validation import check_permutation

        seed_mapper, engine_mapper = make_mappers(method)
        reference = seed_mapper.map_blocks(blocks, fmaps)
        assert_mappings_identical(reference, engine_mapper.map_blocks(blocks, fmaps))
        for mapping in reference.blocks:
            check_permutation(
                mapping.row_permutation, len(mapping.row_permutation)
            )
        return reference

    @pytest.mark.parametrize("method", METHODS)
    def test_all_ties_cost_matrices(self, method):
        """Identical dense blocks on uniformly faulty maps: every entry of
        every cost matrix ties, so the result is decided purely by the
        solver's deterministic tie-breaking."""
        block = np.ones((6, 6))
        blocks = [block.copy(), block.copy()]
        fmaps = [
            FaultMap.from_indices((6, 6), sa0_indices=[(r, 0) for r in range(6)]),
            FaultMap.from_indices((6, 6), sa0_indices=[(r, 3) for r in range(6)]),
            FaultMap.empty(6, 6),
        ]
        reference = self._check_all_paths(blocks, fmaps, method)
        assert reference.total_cost > 0

    @pytest.mark.parametrize("method", METHODS)
    def test_all_sa0_rows_make_columns_infeasible(self, method):
        """A fully SA0 crossbar row is uniformly hostile: every block row
        stored there loses all its ones, producing one saturated column in
        the cost matrix that every permutation must still cover."""
        rng = np.random.default_rng(31)
        blocks = random_blocks(rng, 2, 8, 0.6)
        fmap = FaultMap.empty(8, 8)
        fmap.sa0[2, :] = True  # entire crossbar row stuck at zero
        fmap.sa0[5, :] = True
        fmaps = [fmap, FaultMap.empty(8, 8)]
        reference = self._check_all_paths(blocks, fmaps, method)
        # Only one crossbar is fault-free, so exactly one block escapes the
        # saturated columns; the other must still pay for covering them.
        costs = sorted(m.cost for m in reference.blocks)
        assert costs[0] == 0.0 and costs[1] > 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_1x1_blocks(self, method):
        blocks = [np.ones((1, 1)), np.zeros((1, 1))]
        fmaps = [
            FaultMap.from_indices((1, 1), sa0_indices=[(0, 0)]),
            FaultMap.from_indices((1, 1), sa1_indices=[(0, 0)]),
            FaultMap.empty(1, 1),
        ]
        self._check_all_paths(blocks, fmaps, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_single_block_single_crossbar(self, method):
        rng = np.random.default_rng(33)
        blocks = random_blocks(rng, 1, 4, 0.5)
        fmaps = FaultModel(0.3, (1, 1), seed=34).generate(1, 4, 4)
        self._check_all_paths(blocks, fmaps, method)
