"""Fuzzed equivalence tests for incremental fault-delta re-planning.

The delta-planning contract is *bit-identical equivalence*: re-planning from
a :class:`MapperPlanState` after any sequence of fault-map deltas must return
exactly the mapping a cold :meth:`FaultAwareMapper.map_blocks` computes on
the final maps — same assignments, permutations, costs, SA1 mismatches and
pruned/relaxed lists, for all three row methods, including tie-breaking.
The fuzz suite drives random sequences of the real delta sources (post-
deployment injection, no-op BIST re-scans, endurance wear-out steps,
ε-density patches) through the chained re-plan path and checks every step
against a from-scratch plan, then separately pins down the stats-counter
accounting and the invalidation (full re-plan) rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import FaultAwareMapper, MapperPlanState
from repro.core.strategies import FaReStrategy
from repro.hardware.endurance import EnduranceModel, WearOutSchedule
from repro.hardware.faults import FaultModel

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
        deltas re-planned incrementally equals a from-scratch plan at every
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

        delta_mapper = make_mapper(method, sa1_weight)
        mapping, state = delta_mapper.plan_blocks(blocks, fmaps)
        assert_mappings_identical(
            make_mapper(method, sa1_weight).map_blocks(blocks, fmaps), mapping
        )
        kinds = ["injection", "rescan", "wearout", "epsilon"]
        for step in range(3):
            fmaps = apply_delta(rng, model, fmaps, kinds[int(rng.integers(4))], size)
            mapping, state = delta_mapper.replan_blocks(
                blocks, fmaps, prev_state=state
            )
            cold = make_mapper(method, sa1_weight).map_blocks(blocks, fmaps)
            assert_mappings_identical(cold, mapping)
        assert delta_mapper.cost_engine.stats.delta_plans >= 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_chunked_batches_identical_under_deltas(self, seed):
        """B > M exercises the time-multiplexed chunk loop: every chunk keeps
        its own plan context and the merged mapping must still match cold."""
        rng = np.random.default_rng(seed)
        num_crossbars = int(rng.integers(2, 5))
        num_blocks = num_crossbars * int(rng.integers(2, 4)) + int(rng.integers(0, 2))
        size = 8
        method = METHODS[seed % 3]
        blocks = random_blocks(rng, num_blocks, size, 0.2)
        model = FaultModel(0.1, (1.0, 1.0), seed=seed + 3)
        fmaps = model.generate(num_crossbars, size, size)

        delta_mapper = make_mapper(method)
        _, state = delta_mapper.plan_blocks(blocks, fmaps)
        for _ in range(2):
            fmaps = apply_delta(rng, model, fmaps, "injection", size)
            mapping, state = delta_mapper.replan_blocks(blocks, fmaps, prev_state=state)
            assert_mappings_identical(
                make_mapper(method).map_blocks(blocks, fmaps), mapping
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_strategy_replan_identical_to_fresh_plan(self, method):
        """FaReStrategy.replan_adjacency == a fresh strategy's (cold)
        plan_adjacency on the new maps, across batches."""
        rng = np.random.default_rng(17)
        size, num_crossbars = 8, 6
        blocks_per_batch = [random_blocks(rng, 4, size, 0.2) for _ in range(3)]
        model = FaultModel(0.08, (9.0, 1.0), seed=18)
        fmaps = model.generate(num_crossbars, size, size)
        ids = list(range(num_crossbars))

        delta = FaReStrategy(row_method=method)
        first = delta.plan_adjacency(blocks_per_batch, fmaps, ids, size)
        for blocks, got in zip(blocks_per_batch, first):
            assert_mappings_identical(
                make_mapper(method).map_blocks(blocks, fmaps, crossbar_ids=ids), got
            )
        for _ in range(2):
            fmaps = apply_delta(rng, model, fmaps, "injection", size)
            replanned = delta.replan_adjacency(blocks_per_batch, fmaps, ids, size)
            fresh = FaReStrategy(row_method=method).plan_adjacency(
                blocks_per_batch, fmaps, ids, size
            )
            for ref, got in zip(fresh, replanned):
                assert_mappings_identical(ref, got)


# --------------------------------------------------------------------------- #
# Stats-counter consistency
# --------------------------------------------------------------------------- #
class TestDeltaCounters:
    def _planned(self, method="greedy", seed=0, num_blocks=4, num_crossbars=6, size=8):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, num_blocks, size, 0.25)
        model = FaultModel(0.1, (9.0, 1.0), seed=seed + 1)
        fmaps = model.generate(num_crossbars, size, size)
        mapper = make_mapper(method)
        _, state = mapper.plan_blocks(blocks, fmaps)
        return rng, model, mapper, blocks, fmaps, state

    def test_reexamined_plus_reused_covers_the_grid(self):
        rng, model, mapper, blocks, fmaps, state = self._planned()
        stats = mapper.cost_engine.stats
        num_blocks, num_maps = len(blocks), len(fmaps)
        changed = [1, 4]
        for index in changed:
            fmaps[index] = model.inject_additional([fmaps[index]], 0.05)[0]
        before_pairs = stats.pairs_total
        _, state = mapper.replan_blocks(blocks, fmaps, prev_state=state)
        assert stats.delta_plans == 1
        assert stats.delta_full_replans == 0
        assert stats.delta_maps_changed == len(changed)
        # Only the changed columns are re-examined; the rest splice through.
        assert stats.pairs_total - before_pairs == num_blocks * len(changed)
        assert stats.delta_pairs_reused == num_blocks * (num_maps - len(changed))
        assert (stats.pairs_total - before_pairs) + stats.delta_pairs_reused == (
            num_blocks * num_maps
        )

    def test_noop_rescan_reuses_everything(self):
        _, _, mapper, blocks, fmaps, state = self._planned(seed=5)
        stats = mapper.cost_engine.stats
        before_pairs = stats.pairs_total
        mapping, _ = mapper.replan_blocks(
            blocks, [f.copy() for f in fmaps], prev_state=state
        )
        assert stats.pairs_total == before_pairs
        assert stats.delta_maps_changed == 0
        assert stats.delta_pairs_reused == len(blocks) * len(fmaps)
        assert_mappings_identical(make_mapper("greedy").map_blocks(blocks, fmaps), mapping)

    @pytest.mark.parametrize("method", ["hungarian", "bsuitor"])
    def test_warm_start_counters_track_exact_methods(self, method):
        rng, model, mapper, blocks, fmaps, state = self._planned(
            method=method, seed=9, num_blocks=5, num_crossbars=8, size=8
        )
        fmaps[2] = model.inject_additional([fmaps[2]], 0.04)[0]
        _, state = mapper.replan_blocks(blocks, fmaps, prev_state=state)
        stats = mapper.cost_engine.stats
        # Every warm attempt either lands (hit) or falls back to the cold
        # solver (fallback) — never disappears.
        assert stats.warm_start_hits + stats.warm_start_fallbacks > 0
        if method == "bsuitor":
            # Cached preference orders are valid whenever the cost column is
            # unchanged, so offered hints always land.
            assert stats.warm_start_fallbacks == 0

    def test_greedy_never_warm_starts(self):
        _, model, mapper, blocks, fmaps, state = self._planned(method="greedy", seed=11)
        fmaps[0] = model.inject_additional([fmaps[0]], 0.05)[0]
        mapper.replan_blocks(blocks, fmaps, prev_state=state)
        stats = mapper.cost_engine.stats
        assert stats.warm_start_hits == 0 and stats.warm_start_fallbacks == 0

    def test_stats_exported_with_mapping_prefix(self):
        _, model, mapper, blocks, fmaps, state = self._planned(seed=13)
        fmaps[1] = model.inject_additional([fmaps[1]], 0.05)[0]
        mapper.replan_blocks(blocks, fmaps, prev_state=state)
        exported = mapper.cost_engine.stats.as_dict()
        for key in (
            "mapping_delta_plans",
            "mapping_delta_full_replans",
            "mapping_delta_maps_changed",
            "mapping_delta_pairs_reused",
            "mapping_warm_start_hits",
            "mapping_warm_start_fallbacks",
        ):
            assert key in exported
        assert exported["mapping_delta_plans"] == 1.0


# --------------------------------------------------------------------------- #
# Invalidation: stale contexts must fall back to a (counted) full re-plan
# --------------------------------------------------------------------------- #
class TestDeltaInvalidation:
    def _planned(self, **kwargs):
        return TestDeltaCounters()._planned(**kwargs)

    def test_changed_blocks_force_full_replan(self):
        rng, model, mapper, blocks, fmaps, state = self._planned(seed=21)
        new_blocks = [b.copy() for b in blocks]
        new_blocks[0][0, :] = 1.0  # different sparsity pattern
        mapping, _ = mapper.replan_blocks(new_blocks, fmaps, prev_state=state)
        stats = mapper.cost_engine.stats
        assert stats.delta_full_replans == 1
        assert stats.delta_plans == 0
        assert_mappings_identical(
            make_mapper("greedy").map_blocks(new_blocks, fmaps), mapping
        )

    def test_changed_crossbar_count_forces_full_replan(self):
        _, model, mapper, blocks, fmaps, state = self._planned(seed=23)
        fewer = fmaps[:-1]
        mapping, _ = mapper.replan_blocks(blocks, fewer, prev_state=state)
        assert mapper.cost_engine.stats.delta_full_replans == 1
        assert_mappings_identical(
            make_mapper("greedy").map_blocks(blocks, fewer), mapping
        )

    def test_foreign_engine_config_forces_full_replan(self):
        # A plan state captured under one engine configuration must not leak
        # into an engine with different solver semantics.
        _, model, donor, blocks, fmaps, state = self._planned(seed=25)
        other = make_mapper("greedy", sa1_weight=7.0)
        mapping, _ = other.replan_blocks(blocks, fmaps, prev_state=state)
        assert other.cost_engine.stats.delta_full_replans == 1
        assert_mappings_identical(
            make_mapper("greedy", sa1_weight=7.0).map_blocks(blocks, fmaps), mapping
        )

    def test_changed_chunk_count_forces_full_replan(self):
        _, model, mapper, blocks, fmaps, state = self._planned(
            seed=27, num_blocks=4, num_crossbars=4
        )
        more_blocks = blocks + blocks  # 8 blocks over 4 crossbars: 2 chunks
        mapping, _ = mapper.replan_blocks(more_blocks, fmaps, prev_state=state)
        assert mapper.cost_engine.stats.delta_full_replans == 1
        assert_mappings_identical(
            make_mapper("greedy").map_blocks(more_blocks, fmaps), mapping
        )

    def test_missing_state_is_a_cold_plan_not_an_invalidation(self):
        _, _, mapper, blocks, fmaps, _ = self._planned(seed=29)
        mapper.replan_blocks(blocks, fmaps, prev_state=None)
        assert mapper.cost_engine.stats.delta_full_replans == 0

    def test_plan_state_shape_recorded(self):
        _, _, mapper, blocks, fmaps, state = self._planned(seed=31)
        assert isinstance(state, MapperPlanState)
        assert state.num_crossbars == len(fmaps)
        assert len(state.chunk_contexts) == 1
