"""Fuzzed equivalence tests for re-planning after fault-map deltas.

A re-plan is another :meth:`FaultAwareMapper.map_blocks` (or
:meth:`FaReStrategy.plan_adjacency`) call on the same mapper: its cost
engine serves every (block, crossbar) pair whose block and fault map are
unchanged from the content-keyed pair cache.  The contract is *bit-identical
equivalence*: after any sequence of fault-map deltas the re-plan returns
exactly the mapping a fresh mapper computes on the final maps — same
assignments, permutations, costs, SA1 mismatches and pruned/relaxed lists,
for all three row methods, including tie-breaking.  The fuzz suite drives
random sequences of the real delta sources (post-deployment injection, no-op
BIST re-scans, endurance wear-out steps, ε-density patches) through chained
re-plans and checks every step against a from-scratch plan, then pins down
the cache accounting of a re-plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_engine import MappingCostEngine, block_fingerprint
from repro.core.mapping import FaultAwareMapper
from repro.core.strategies import FaReStrategy
from repro.hardware.endurance import EnduranceModel, WearOutSchedule
from repro.hardware.faults import FaultMap, FaultModel

METHODS = ["greedy", "hungarian", "bsuitor"]


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


def make_mapper(method, sa1_weight=4.0, **kwargs):
    return FaultAwareMapper(sa1_weight=sa1_weight, row_method=method, **kwargs)


def apply_delta(rng, model, fmaps, kind, size):
    """One realistic fault-map delta; returns the new map list.

    ``injection`` hits a random subset of crossbars (post-deployment faults
    land where writes land), ``rescan`` is a no-op BIST re-read (same maps,
    fresh objects), ``wearout`` injects an endurance-schedule increment into
    every crossbar, and ``epsilon`` patches a single map with the smallest
    representable density bump.
    """
    if kind == "rescan":
        return [f.copy() for f in fmaps]
    if kind == "epsilon":
        target = int(rng.integers(len(fmaps)))
        out = [f.copy() for f in fmaps]
        out[target] = model.inject_additional([fmaps[target]], 1.5 / size**2)[0]
        return out
    if kind == "wearout":
        schedule = WearOutSchedule.log_spaced(
            EnduranceModel(mean_endurance=1e6), num_checkpoints=2
        )
        return model.inject_additional(fmaps, schedule.density_increments()[0])
    # kind == "injection": a random non-empty subset of crossbars.
    subset = rng.choice(len(fmaps), size=int(rng.integers(1, len(fmaps) + 1)), replace=False)
    out = [f.copy() for f in fmaps]
    for index in subset:
        out[index] = model.inject_additional([fmaps[index]], 0.03)[0]
    return out


# --------------------------------------------------------------------------- #
# Fuzzed bit-identity across delta sequences
# --------------------------------------------------------------------------- #
class TestDeltaEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_delta_chains_identical_to_cold_plans(self, seed):
        """Property: any sequence of injection / re-scan / wear-out / ε-patch
        deltas re-planned on one mapper equals a from-scratch plan at every
        step, for every row method."""
        rng = np.random.default_rng(seed)
        num_blocks = int(rng.integers(1, 7))
        num_crossbars = int(rng.integers(2, 8))
        size = int(rng.choice([4, 8]))
        method = METHODS[seed % 3]
        sa1_weight = float(rng.choice([1.0, 2.0, 4.0]))
        blocks = random_blocks(rng, num_blocks, size, float(rng.uniform(0.05, 0.4)))
        model = FaultModel(0.08, (9.0, 1.0), seed=seed + 1)
        fmaps = model.generate(num_crossbars, size, size)

        warm_mapper = make_mapper(method, sa1_weight)
        assert_mappings_identical(
            make_mapper(method, sa1_weight).map_blocks(blocks, fmaps),
            warm_mapper.map_blocks(blocks, fmaps),
        )
        kinds = ["injection", "rescan", "wearout", "epsilon"]
        for step in range(3):
            fmaps = apply_delta(rng, model, fmaps, kinds[int(rng.integers(4))], size)
            mapping = warm_mapper.map_blocks(blocks, fmaps)
            cold = make_mapper(method, sa1_weight).map_blocks(blocks, fmaps)
            assert_mappings_identical(cold, mapping)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_chunked_batches_identical_under_deltas(self, seed):
        """B > M exercises the time-multiplexed chunk loop: every chunk
        re-plans through the shared cache and the merged mapping must still
        match cold."""
        rng = np.random.default_rng(seed)
        num_crossbars = int(rng.integers(2, 5))
        num_blocks = num_crossbars * int(rng.integers(2, 4)) + int(rng.integers(0, 2))
        size = 8
        method = METHODS[seed % 3]
        blocks = random_blocks(rng, num_blocks, size, 0.2)
        model = FaultModel(0.1, (1.0, 1.0), seed=seed + 3)
        fmaps = model.generate(num_crossbars, size, size)

        warm_mapper = make_mapper(method)
        warm_mapper.map_blocks(blocks, fmaps)
        for _ in range(2):
            fmaps = apply_delta(rng, model, fmaps, "injection", size)
            assert_mappings_identical(
                make_mapper(method).map_blocks(blocks, fmaps),
                warm_mapper.map_blocks(blocks, fmaps),
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_strategy_replan_identical_to_fresh_plan(self, method):
        """A strategy's second plan_adjacency == a fresh strategy's (cold)
        plan_adjacency on the new maps, across batches."""
        rng = np.random.default_rng(17)
        size, num_crossbars = 8, 6
        blocks_per_batch = [random_blocks(rng, 4, size, 0.2) for _ in range(3)]
        model = FaultModel(0.08, (9.0, 1.0), seed=18)
        fmaps = model.generate(num_crossbars, size, size)
        ids = list(range(num_crossbars))

        warm = FaReStrategy(row_method=method)
        first = warm.plan_adjacency(blocks_per_batch, fmaps, ids, size)
        for blocks, got in zip(blocks_per_batch, first):
            assert_mappings_identical(
                make_mapper(method).map_blocks(blocks, fmaps, crossbar_ids=ids), got
            )
        for _ in range(2):
            fmaps = apply_delta(rng, model, fmaps, "injection", size)
            replanned = warm.plan_adjacency(blocks_per_batch, fmaps, ids, size)
            fresh = FaReStrategy(row_method=method).plan_adjacency(
                blocks_per_batch, fmaps, ids, size
            )
            for ref, got in zip(fresh, replanned):
                assert_mappings_identical(ref, got)

    @pytest.mark.parametrize("change", ["blocks", "fewer_crossbars", "more_chunks"])
    def test_replan_after_input_change_identical_to_cold(self, change):
        """The cache is keyed on content, so a re-plan whose blocks or
        crossbar set changed is still exactly the cold plan."""
        rng = np.random.default_rng(21)
        blocks = random_blocks(rng, 4, 8, 0.25)
        fmaps = FaultModel(0.1, (9.0, 1.0), seed=22).generate(4, 8, 8)
        mapper = make_mapper("greedy")
        mapper.map_blocks(blocks, fmaps)
        if change == "blocks":
            blocks = [b.copy() for b in blocks]
            blocks[0][0, :] = 1.0  # different sparsity pattern
        elif change == "fewer_crossbars":
            fmaps = fmaps[:-1]
        else:
            blocks = blocks + blocks  # 8 blocks over 4 crossbars: 2 chunks
        assert_mappings_identical(
            make_mapper("greedy").map_blocks(blocks, fmaps),
            mapper.map_blocks(blocks, fmaps),
        )


# --------------------------------------------------------------------------- #
# Cache accounting of a re-plan
# --------------------------------------------------------------------------- #
class TestDeltaCounters:
    def _planned(self, method="greedy", seed=0, num_blocks=4, num_crossbars=6, size=8):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, num_blocks, size, 0.25)
        model = FaultModel(0.1, (9.0, 1.0), seed=seed + 1)
        fmaps = model.generate(num_crossbars, size, size)
        # The counts below assume distinct blocks and distinct faulty maps.
        assert len({block_fingerprint(b) for b in blocks}) == num_blocks
        assert len({f.fingerprint for f in fmaps if not f.is_fault_free()}) == (
            num_crossbars
        )
        mapper = make_mapper(method)
        mapper.map_blocks(blocks, fmaps)
        return rng, model, mapper, blocks, fmaps

    @pytest.mark.parametrize("method", METHODS)
    def test_reexamined_plus_reused_covers_the_grid(self, method):
        """With 2 of 6 maps changed, the re-plan misses B×2 pairs (solved
        again) and hits the other B×4 (served from the cache)."""
        _, model, mapper, blocks, fmaps = self._planned(method=method)
        stats = mapper.cost_engine.stats
        num_blocks = len(blocks)
        changed = [1, 4]
        for index in changed:
            fmaps[index] = model.inject_additional([fmaps[index]], 0.05)[0]
        hits, misses = stats.cache_hits, stats.cache_misses
        mapping = mapper.map_blocks(blocks, fmaps)
        assert stats.cache_misses - misses == num_blocks * len(changed)
        assert stats.cache_hits - hits == num_blocks * (len(fmaps) - len(changed))
        assert stats.cache_evictions == 0
        assert_mappings_identical(make_mapper(method).map_blocks(blocks, fmaps), mapping)

    def test_noop_rescan_reuses_everything(self):
        _, _, mapper, blocks, fmaps = self._planned(seed=5)
        stats = mapper.cost_engine.stats
        hits, misses, solved = stats.cache_hits, stats.cache_misses, stats.solver_pairs
        mapping = mapper.map_blocks(blocks, [f.copy() for f in fmaps])
        assert stats.cache_misses == misses
        assert stats.solver_pairs == solved
        assert stats.cache_hits - hits == len(blocks) * len(fmaps)
        assert_mappings_identical(make_mapper("greedy").map_blocks(blocks, fmaps), mapping)

    def test_replan_past_cache_size_is_cold_but_identical(self):
        """A re-plan is warm only while the previous plan's unique pairs fit
        in CACHE_SIZE; past it the evicted pairs are solved again."""
        rng = np.random.default_rng(7)
        blocks = random_blocks(rng, 4, 8, 0.25)
        fmaps = FaultModel(0.1, (9.0, 1.0), seed=8).generate(6, 8, 8)
        mapper = make_mapper("greedy")
        mapper.cost_engine.CACHE_SIZE = 1
        mapper.map_blocks(blocks, fmaps)
        stats = mapper.cost_engine.stats
        hits, misses = stats.cache_hits, stats.cache_misses
        mapping = mapper.map_blocks(blocks, [f.copy() for f in fmaps])
        looked_up = (stats.cache_hits - hits) + (stats.cache_misses - misses)
        assert stats.cache_hits - hits <= mapper.cost_engine.CACHE_SIZE
        assert stats.cache_misses - misses >= looked_up - 1 > 0
        assert stats.cache_evictions > 0
        assert_mappings_identical(make_mapper("greedy").map_blocks(blocks, fmaps), mapping)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_reuse_changes_no_result_or_counter(self, seed):
        """An engine reuses the previous call's fingerprints and each fault
        map's last grid row.  Across plans and refreshes with deltas,
        duplicate and fault-free maps, changed blocks and evictions, it
        returns the same values and moves every counter exactly as an engine
        whose reuse state is dropped before each call."""
        rng = np.random.default_rng(seed)
        size = int(rng.choice([4, 8]))
        model = FaultModel(0.1, (3.0, 1.0), seed=seed + 2)
        fmaps = model.generate(int(rng.integers(2, 7)), size, size)
        blocks = random_blocks(rng, int(rng.integers(1, 6)), size, 0.25)
        method = METHODS[seed % 3]
        reusing = MappingCostEngine(row_method=method)
        dropping = MappingCostEngine(row_method=method)
        if seed % 4 == 0:
            reusing.CACHE_SIZE = dropping.CACHE_SIZE = 2 * len(blocks)
        for _ in range(6):
            draw = int(rng.integers(5))
            if draw == 0:
                fmaps = apply_delta(rng, model, fmaps, "injection", size)
            elif draw == 1:
                blocks = blocks[::-1] if len(blocks) > 1 else blocks + blocks
            elif draw == 2:
                fmaps = fmaps + [fmaps[0].copy(), FaultMap.empty(size, size)]
            dropping._previous = None
            for column in dropping._cache.values():
                column.blocks = None
            if draw == 3:
                pairs = [int(k) for k in rng.integers(0, len(fmaps), len(blocks))]
                got, ref = (
                    engine.pair_results(blocks, [fmaps[k] for k in pairs])
                    for engine in (reusing, dropping)
                )
                for (cost, perm, sa1), (ref_cost, ref_perm, ref_sa1) in zip(got, ref):
                    assert (cost, sa1) == (ref_cost, ref_sa1)
                    np.testing.assert_array_equal(perm, ref_perm)
            else:
                got, ref = (
                    engine.plan_pairwise(blocks, fmaps)
                    for engine in (reusing, dropping)
                )
                np.testing.assert_array_equal(got[0], ref[0])
                np.testing.assert_array_equal(got[1], ref[1])
                for i in range(len(blocks)):
                    for j in range(len(fmaps)):
                        np.testing.assert_array_equal(got[2](i, j), ref[2](i, j))
            assert reusing.stats == dropping.stats
