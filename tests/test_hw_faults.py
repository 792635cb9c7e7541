"""Tests for stuck-at-fault maps and the fault model (incl. property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.faults import (
    FaultMap,
    FaultModel,
    apply_faults_to_binary,
    apply_faults_to_cells,
    population_counts,
    population_density,
    stacked_fault_maps,
)

from reference.faults import seed_generate, seed_inject_additional


class TestFaultMap:
    def test_empty(self):
        fmap = FaultMap.empty(8, 8)
        assert fmap.is_fault_free()
        assert fmap.density == 0.0

    def test_from_indices(self):
        fmap = FaultMap.from_indices((4, 4), sa0_indices=[(0, 0)], sa1_indices=[(1, 1)])
        assert fmap.num_sa0 == 1 and fmap.num_sa1 == 1
        assert fmap.density == pytest.approx(2 / 16)

    def test_conflicting_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultMap.from_indices((2, 2), sa0_indices=[(0, 0)], sa1_indices=[(0, 0)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FaultMap(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))

    def test_copy_is_independent(self, small_fault_map):
        clone = small_fault_map.copy()
        clone.sa0[:] = False
        assert small_fault_map.num_sa0 > 0

    def test_permuted_rows(self, small_fault_map):
        perm = np.random.default_rng(0).permutation(16)
        permuted = small_fault_map.permuted_rows(perm)
        np.testing.assert_array_equal(permuted.sa0, small_fault_map.sa0[perm])

    def test_permuted_rows_invalid(self, small_fault_map):
        with pytest.raises(ValueError):
            small_fault_map.permuted_rows(np.zeros(16, dtype=int))

    def test_merge_sa1_wins(self):
        a = FaultMap.from_indices((2, 2), sa0_indices=[(0, 0)])
        b = FaultMap.from_indices((2, 2), sa1_indices=[(0, 0)])
        merged = a.merge(b)
        assert merged.sa1[0, 0] and not merged.sa0[0, 0]


class TestApplyFaults:
    def test_binary_sa1_adds_edge(self):
        block = np.zeros((3, 3))
        fmap = FaultMap.from_indices((3, 3), sa1_indices=[(1, 2)])
        out = apply_faults_to_binary(block, fmap)
        assert out[1, 2] == 1.0

    def test_binary_sa0_deletes_edge(self):
        block = np.ones((3, 3))
        fmap = FaultMap.from_indices((3, 3), sa0_indices=[(0, 1)])
        out = apply_faults_to_binary(block, fmap)
        assert out[0, 1] == 0.0

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_faults_to_binary(np.zeros((2, 2)), FaultMap.empty(3, 3))

    def test_binary_input_unmodified(self):
        block = np.ones((2, 2))
        fmap = FaultMap.from_indices((2, 2), sa0_indices=[(0, 0)])
        apply_faults_to_binary(block, fmap)
        assert block[0, 0] == 1.0

    def test_cells_forced_values(self):
        cells = np.full((2, 2), 2, dtype=np.int64)
        sa0 = np.array([[True, False], [False, False]])
        sa1 = np.array([[False, False], [False, True]])
        out = apply_faults_to_cells(cells, sa0, sa1, cell_levels=4)
        assert out[0, 0] == 0 and out[1, 1] == 3 and out[0, 1] == 2

    def test_cells_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_faults_to_cells(np.zeros((2, 2)), np.zeros((3, 3), bool), np.zeros((3, 3), bool), 4)


class TestFaultModel:
    def test_density_close_to_target(self):
        model = FaultModel(0.05, (9, 1), seed=0)
        maps = model.generate(50, 32, 32)
        assert population_density(maps) == pytest.approx(0.05, rel=0.25)

    def test_sa_ratio_respected(self):
        model = FaultModel(0.1, (9, 1), seed=1)
        maps = model.generate(60, 32, 32)
        sa0, sa1 = population_counts(maps)
        assert sa0 / max(sa1, 1) == pytest.approx(9.0, rel=0.4)

    def test_equal_ratio(self):
        model = FaultModel(0.1, (1, 1), seed=2)
        maps = model.generate(60, 32, 32)
        sa0, sa1 = population_counts(maps)
        assert sa0 / max(sa1, 1) == pytest.approx(1.0, rel=0.3)

    def test_clustering_produces_variance(self):
        model = FaultModel(0.05, (9, 1), clustered=True, seed=3)
        maps = model.generate(80, 32, 32)
        counts = np.array([m.num_faults for m in maps])
        assert counts.std() > 0

    def test_unclustered_counts_constant(self):
        model = FaultModel(0.05, (9, 1), clustered=False, seed=4)
        maps = model.generate(10, 32, 32)
        counts = {m.num_faults for m in maps}
        assert len(counts) == 1

    def test_zero_density(self):
        model = FaultModel(0.0, (9, 1), seed=5)
        maps = model.generate(5, 16, 16)
        assert all(m.is_fault_free() for m in maps)

    def test_inject_additional_monotone(self):
        model = FaultModel(0.02, (9, 1), seed=6)
        maps = model.generate(20, 32, 32)
        before = sum(m.num_faults for m in maps)
        updated = model.inject_additional(maps, 0.02)
        after = sum(m.num_faults for m in updated)
        assert after >= before
        # Original maps untouched.
        assert sum(m.num_faults for m in maps) == before

    def test_inject_keeps_existing_fault_types(self):
        model = FaultModel(0.5, (0, 1), seed=7)  # only SA1 initially
        maps = model.generate(3, 16, 16)
        model2 = FaultModel(0.5, (1, 0), seed=8)  # additional SA0 faults
        updated = model2.inject_additional(maps, 0.5)
        for old, new in zip(maps, updated):
            # Wherever an SA1 fault existed it must still be SA1.
            assert np.all(new.sa1[old.sa1])

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            FaultModel(1.5)

    def test_repr(self):
        assert "FaultModel" in repr(FaultModel(0.01))


class TestFaultMapDeltaAlgebra:
    """Property tests for the fault-map algebra behind warm re-planning.

    A re-plan reuses cost-engine results keyed on fault-map content
    fingerprints, so ``merge`` precedence, ``permuted_rows`` round-trips,
    and fingerprint stability/uniqueness under in-place mutation are
    load-bearing invariants, fuzzed here.
    """

    @staticmethod
    def _random_map(rng, rows=16, cols=16, density=0.15):
        model = FaultModel(density, (1.0, 1.0), seed=int(rng.integers(1 << 31)))
        return model.generate(1, rows, cols)[0]

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_merge_sa1_wins_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        a, b = self._random_map(rng), self._random_map(rng)
        merged = a.merge(b)
        # SA1 survives from either side; SA0 holds only where no SA1 claims
        # the cell — the physical model (stuck-at-1 dominates) and the rule
        # inject_additional relies on.
        np.testing.assert_array_equal(merged.sa1, a.sa1 | b.sa1)
        np.testing.assert_array_equal(merged.sa0, (a.sa0 | b.sa0) & ~merged.sa1)
        assert not np.any(merged.sa0 & merged.sa1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permuted_rows_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        fmap = self._random_map(rng)
        perm = rng.permutation(16)
        inverse = np.argsort(perm)
        restored = fmap.permuted_rows(perm).permuted_rows(inverse)
        np.testing.assert_array_equal(restored.sa0, fmap.sa0)
        np.testing.assert_array_equal(restored.sa1, fmap.sa1)
        assert restored.fingerprint == fmap.fingerprint

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_stable_across_copies_unique_across_mutations(self, seed):
        rng = np.random.default_rng(seed)
        # A generated map is a read-only view; edit a copy of it.
        fmap = self._random_map(rng).copy()
        original = fmap.fingerprint
        assert fmap.copy().fingerprint == original  # stability
        r, c = int(rng.integers(16)), int(rng.integers(16))
        plane = fmap.sa1 if rng.integers(2) else fmap.sa0
        other = fmap.sa0 if plane is fmap.sa1 else fmap.sa1
        before = bool(plane[r, c])
        other[r, c] = False  # keep the no-conflict invariant
        plane[r, c] = not before
        assert fmap.fingerprint != original  # uniqueness under mutation
        mutated = fmap.fingerprint
        assert fmap.fingerprint == mutated  # deterministic re-read

    def test_inject_additional_is_merge_with_fresh_faults(self):
        # The injection delta source is pure algebra: new = old.merge(fresh),
        # with existing faults taking precedence over fresh SA0.
        model = FaultModel(0.1, (9.0, 1.0), seed=42)
        maps = model.generate(4, 16, 16)
        updated = model.inject_additional(maps, 0.05)
        for old, new in zip(maps, updated):
            assert np.all(new.sa1[old.sa1])  # SA1 never downgraded
            assert np.all((new.sa0 | new.sa1)[old.sa0 | old.sa1])  # monotone
            assert not np.any(new.sa0 & new.sa1)
            assert new.fingerprint != old.fingerprint or old.num_faults == new.num_faults


class TestFaultProperties:
    @given(
        st.floats(0.0, 0.2),
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_maps_are_consistent(self, density, seed):
        model = FaultModel(density, (9, 1), seed=seed)
        maps = model.generate(4, 16, 16)
        for fmap in maps:
            assert not np.any(fmap.sa0 & fmap.sa1)
            assert 0.0 <= fmap.density <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_apply_binary_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        block = (rng.random((16, 16)) > 0.7).astype(float)
        model = FaultModel(0.1, (1, 1), seed=seed)
        fmap = model.generate(1, 16, 16)[0]
        once = apply_faults_to_binary(block, fmap)
        twice = apply_faults_to_binary(once, fmap)
        np.testing.assert_array_equal(once, twice)


def _assert_same_maps(got, want):
    assert len(got) == len(want)
    for candidate, reference in zip(got, want):
        assert candidate.shape == reference.shape
        assert candidate.sa0.dtype == bool and candidate.sa1.dtype == bool
        np.testing.assert_array_equal(candidate.sa0, reference.sa0)
        np.testing.assert_array_equal(candidate.sa1, reference.sa1)


class TestStackedSampling:
    """``generate`` and ``inject_additional`` against the per-map seed loop.

    Same random draws in the same order, merged into one stacked pair of
    planes: maps and the generator state must match after every step of a
    chain of injections.
    """

    @pytest.mark.parametrize("clustered", [True, False])
    @pytest.mark.parametrize("ratio", [(9, 1), (1, 1), (0, 1), (1, 0)])
    @pytest.mark.parametrize("num_crossbars", [1, 7])
    def test_chain_matches_seed_loop(self, clustered, ratio, num_crossbars):
        # Density 0 and a tiny extra density make maps that draw no new
        # fault; the dense steps make collisions with existing faults.
        densities = (0.0, 0.002, 0.3, 0.0, 0.6, 0.05)
        model = FaultModel(0.08, ratio, clustered=clustered, seed=11)
        seed = FaultModel(0.08, ratio, clustered=clustered, seed=11)
        maps = model.generate(num_crossbars, 12, 10)
        reference = seed_generate(seed, num_crossbars, 12, 10)
        _assert_same_maps(maps, reference)
        assert model.rng_state == seed.rng_state
        for density in densities:
            before = [(m.sa0.copy(), m.sa1.copy()) for m in maps]
            maps_in = maps
            maps = model.inject_additional(maps_in, density)
            reference = seed_inject_additional(seed, reference, density)
            _assert_same_maps(maps, reference)
            assert model.rng_state == seed.rng_state
            for fmap, (sa0, sa1) in zip(maps_in, before):
                np.testing.assert_array_equal(fmap.sa0, sa0)
                np.testing.assert_array_equal(fmap.sa1, sa1)

    @pytest.mark.parametrize("density", [0.0, 0.05, 1.0])
    def test_generate_matches_seed_with_explicit_rng(self, density):
        model = FaultModel(density, (1, 1), seed=0)
        got = model.generate(5, 8, 8, rng=np.random.default_rng(3))
        want = seed_generate(model, 5, 8, 8, rng=np.random.default_rng(3))
        _assert_same_maps(got, want)

    def test_collisions_keep_existing_types(self):
        # Every cell faulty before, every cell drawn again: nothing changes.
        model = FaultModel(1.0, (1, 1), seed=5)
        maps = model.generate(3, 6, 6)
        updated = model.inject_additional(maps, 1.0)
        _assert_same_maps(updated, maps)

    def test_maps_are_read_only_views_of_one_stack(self):
        model = FaultModel(0.1, (9, 1), seed=2)
        maps = model.inject_additional(model.generate(4, 8, 8), 0.05)
        base = maps[0].sa0.base
        assert base is not None and all(m.sa0.base is base for m in maps)
        with pytest.raises(ValueError):
            maps[1].sa0[0, 0] = True
        edited = maps[1].copy()
        edited.sa0[0, 0] = not edited.sa0[0, 0]
        assert maps[1].fingerprint != edited.fingerprint

    def test_stack_is_validated_once(self):
        sa0 = np.zeros((2, 3, 3), dtype=bool)
        sa1 = np.zeros((2, 3, 3), dtype=bool)
        sa0[1, 2, 2] = sa1[1, 2, 2] = True
        with pytest.raises(ValueError, match="both SA0 and SA1"):
            stacked_fault_maps(sa0, sa1)
        with pytest.raises(ValueError):
            stacked_fault_maps(sa0, sa1[:, :2])

    def test_mixed_shapes_rejected(self):
        model = FaultModel(0.1, seed=1)
        with pytest.raises(ValueError):
            model.inject_additional([FaultMap.empty(4, 4), FaultMap.empty(4, 5)], 0.1)

    def test_empty_list(self):
        model = FaultModel(0.1, seed=1)
        state = model.rng_state
        assert model.inject_additional([], 0.5) == []
        assert model.rng_state == state

    def test_population_counts(self):
        maps = FaultModel(0.2, (1, 1), seed=9).generate(6, 8, 8)
        sa0, sa1 = population_counts(maps)
        assert sa0 == sum(int(m.sa0.sum()) for m in maps)
        assert sa1 == sum(int(m.sa1.sum()) for m in maps)
        assert population_density(maps) == (sa0 + sa1) / (6 * 64)
