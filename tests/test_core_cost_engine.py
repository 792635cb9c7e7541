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
from repro.core.mapping import FaultAwareMapper, block_crossbar_cost
from repro.hardware.faults import FaultMap, FaultModel

from reference.mapping import SeedLoopMapper


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
        sa1_weight = float(rng.choice([1.0, 2.0, 4.0, 7.5]))
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

    @pytest.mark.parametrize("sa1_weight", [4.0, 7.5])
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
        sa1_weight = float(rng.choice([1.0, 4.0, 7.5]))
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

    @pytest.mark.parametrize("method", ["hungarian", "bsuitor"])
    def test_batched_exact_counter_tracks_path(self, method):
        rng = np.random.default_rng(21)
        blocks = random_blocks(rng, 4, 8, 0.3)
        fmaps = FaultModel(0.2, (1, 1), seed=22).generate(6, 8, 8)
        _, batched = make_mappers(method)
        batched.map_blocks(blocks, fmaps)
        assert batched.cost_engine.stats.batched_solver_pairs > 0
        assert batched.cost_engine.stats.batched_solver_pairs == (
            batched.cost_engine.stats.solver_pairs
        )

    def test_single_pair_matches_module_function(self):
        rng = np.random.default_rng(5)
        block = random_blocks(rng, 1, 16, 0.1)[0]
        fmap = FaultModel(0.15, (1, 1), seed=6).generate(1, 16, 16)[0]
        engine = MappingCostEngine(sa1_weight=4.0, row_method="greedy")
        ref_cost, ref_perm, ref_sa1 = block_crossbar_cost(
            block, fmap, 4.0, method="greedy"
        )
        cost, perm, sa1 = engine.block_crossbar_cost(block, fmap)
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

    def test_zero_cost_pairs_skip_the_solver(self):
        # The block's single one sits in a column no fault touches, and the
        # only SA1 fault is in a column where every block row has a one —
        # sa0 and sa1 cost matrices are identically zero.
        block = np.zeros((4, 4))
        block[:, 0] = 1.0
        fmap = FaultMap.from_indices((4, 4), sa1_indices=[(2, 0)])
        engine = MappingCostEngine(row_method="greedy")
        costs, sa1, provider = engine.plan_pairwise([block], [fmap])
        assert engine.stats.solver_pairs == 0
        assert engine.stats.zero_cost_pairs == 1
        assert costs[0, 0] == 0.0 and sa1[0, 0] == 0.0
        # Materialising the permutation runs the real solver lazily and must
        # match the never-skipped seed result.
        _, ref_perm, _ = block_crossbar_cost(block, fmap, 4.0, method="greedy")
        np.testing.assert_array_equal(provider(0, 0), ref_perm)
        assert engine.stats.lazy_permutations == 1

    def test_cache_eviction_bounds_memory(self):
        rng = np.random.default_rng(9)
        engine = MappingCostEngine()
        engine.CACHE_SIZE = 4
        fmaps = FaultModel(0.3, (1, 1), seed=10).generate(10, 4, 4)
        fmaps = [f for f in fmaps if not f.is_fault_free()]
        block = random_blocks(rng, 1, 4, 0.5)[0]
        for fmap in fmaps:
            engine.block_crossbar_cost(block, fmap)
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
        engine.block_crossbar_cost(block, fmap)
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

    def test_batched_solver_pairs_exported(self):
        stats = CostEngineStats(batched_solver_pairs=5)
        assert stats.as_dict()["mapping_batched_solver_pairs"] == 5.0

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

    METHODS = ["greedy", "hungarian", "bsuitor"]

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
