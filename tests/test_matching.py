"""Tests for the bipartite matching algorithms (greedy, Hungarian, b-Suitor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.matching.bipartite import (
    SOLVERS,
    assignment_cost,
    solve_assignment,
    validate_assignment,
)
from repro.matching.bsuitor import bsuitor_assignment, bsuitor_bmatching
from repro.matching import greedy as greedy_module
from repro.matching.greedy import greedy_assignment, greedy_assignment_batch
from repro.matching.hungarian import hungarian_assignment

from reference.matching import (
    seed_greedy_assignment,
    seed_greedy_assignment_batch,
    seed_hungarian_assignment,
)


def random_cost(rows, cols, seed):
    return np.random.default_rng(seed).random((rows, cols)) * 10


class TestGreedy:
    def test_valid_assignment(self):
        cost = random_cost(5, 8, 0)
        assignment, total = greedy_assignment(cost)
        validate_assignment(assignment, 8)
        assert total == pytest.approx(assignment_cost(cost, assignment))

    def test_identity_on_diagonal_cost(self):
        cost = np.ones((4, 4)) - np.eye(4)
        assignment, total = greedy_assignment(cost)
        np.testing.assert_array_equal(np.sort(assignment), np.arange(4))
        assert total == 0.0

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError):
            greedy_assignment(np.zeros((3, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            greedy_assignment(np.zeros(5))

    @pytest.mark.parametrize("seed", range(10))
    def test_masking_rewrite_bit_identical_to_seed(self, seed):
        """Row/column masking must keep results bit-identical to the old
        copy-and-inf-mask implementation, including tie-breaking."""
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(rows, 12))
        # Heavily quantised costs force plenty of ties.
        cost = np.floor(rng.random((rows, cols)) * 4.0)
        assignment, total = greedy_assignment(cost)
        ref_assignment, ref_total = seed_greedy_assignment(cost)
        np.testing.assert_array_equal(assignment, ref_assignment)
        assert total == ref_total

    def test_all_zero_matrix_gives_identity(self):
        assignment, total = greedy_assignment(np.zeros((5, 5)))
        np.testing.assert_array_equal(assignment, np.arange(5))
        assert total == 0.0


def greedy_fuzz_stack(rng, kind):
    """One cost stack of a :class:`TestGreedyBatch` fuzz family."""
    if kind == "engine_shape":
        # The mapping engine's int32 stacks: mostly zeros, ties everywhere.
        size = int(rng.choice([64, 128]))
        shape = (int(rng.integers(1, 4)), size, size)
        values = rng.integers(0, 6, shape)
        return np.where(rng.random(shape) < rng.uniform(0.1, 0.6), values, 0).astype(
            np.int32
        )
    num = int(rng.integers(1, 8))
    if kind == "many_problems":
        # More problems than one remainder chunk; sparse, so remainders
        # come out uneven.
        num = int(rng.integers(greedy_module._REMAINDER_CHUNK + 1, 90))
    rows = int(rng.integers(1, 12))
    cols = int(rng.integers(rows, 16))
    if kind == "non_square":
        cols = int(rng.integers(rows + 1, rows + 8))
    shape = (num, rows, cols)
    if kind in ("tied_int32", "non_square", "many_problems"):
        values = rng.integers(0, 6, shape)
        return np.where(rng.random(shape) < 0.4, values, 0).astype(np.int32)
    if kind == "positive_minimum":
        return rng.integers(0, 4, shape).astype(np.int64) + int(rng.integers(1, 5))
    if kind == "float":
        # Non-integral float64: totals depend on the summation order.
        return rng.integers(0, 5, shape) * 0.3
    if kind == "inf_heavy":
        stack = np.floor(rng.random(shape) * 3.0) * 0.3
        stack[rng.random(shape) < 0.6] = np.inf
        return stack
    assert kind == "all_ties"
    return np.full(shape, float(rng.integers(0, 3)))


class TestGreedyBatch:
    @pytest.mark.parametrize(
        "kind",
        [
            "engine_shape",
            "tied_int32",
            "positive_minimum",
            "non_square",
            "float",
            "inf_heavy",
            "all_ties",
            "many_problems",
        ],
    )
    @given(st.integers(0, 100_000))
    @settings(max_examples=12, deadline=None)
    def test_two_phase_identical_to_seed_loop_and_scalar(self, kind, seed):
        """Same assignments, totals and dtypes as the one-argmin-per-row seed
        loop and the per-problem scalar, and the input is left untouched."""
        stack = greedy_fuzz_stack(np.random.default_rng(seed), kind)
        before = stack.copy()
        assignments, totals = greedy_assignment_batch(stack)
        np.testing.assert_array_equal(stack, before)
        seed_assignments, seed_totals = seed_greedy_assignment_batch(stack)
        assert assignments.dtype == seed_assignments.dtype
        assert totals.dtype == seed_totals.dtype
        np.testing.assert_array_equal(assignments, seed_assignments)
        np.testing.assert_array_equal(totals, seed_totals)
        for p in range(stack.shape[0]):
            ref_assignment, ref_total = greedy_assignment(stack[p])
            np.testing.assert_array_equal(assignments[p], ref_assignment)
            assert totals[p] == ref_total

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_per_problem(self, seed):
        rng = np.random.default_rng(seed + 200)
        stack = np.floor(rng.random((7, 6, 9)) * 3.0)
        assignments, totals = greedy_assignment_batch(stack)
        for p in range(stack.shape[0]):
            ref_assignment, ref_total = greedy_assignment(stack[p])
            np.testing.assert_array_equal(assignments[p], ref_assignment)
            assert totals[p] == ref_total

    def test_integer_costs_match_scalar(self):
        rng = np.random.default_rng(42)
        stack = rng.integers(0, 50, size=(4, 5, 7)).astype(np.int64)
        assignments, totals = greedy_assignment_batch(stack)
        for p in range(stack.shape[0]):
            ref_assignment, ref_total = greedy_assignment(stack[p])
            np.testing.assert_array_equal(assignments[p], ref_assignment)
            assert totals[p] == ref_total

    @pytest.mark.parametrize("seed", range(6))
    def test_inf_costs_match_scalar(self, seed):
        # inf marks forbidden assignments; once only inf cells remain the
        # batch path must still commit valid (distinct) cells like the scalar.
        rng = np.random.default_rng(seed + 900)
        stack = np.floor(rng.random((5, 4, 5)) * 3.0)
        stack[rng.random(stack.shape) < 0.6] = np.inf
        assignments, totals = greedy_assignment_batch(stack)
        for p in range(stack.shape[0]):
            ref_assignment, ref_total = greedy_assignment(stack[p])
            np.testing.assert_array_equal(assignments[p], ref_assignment)
            assert totals[p] == ref_total or (
                np.isinf(totals[p]) and np.isinf(ref_total)
            )
            validate_assignment(assignments[p], stack.shape[2])

    def test_huge_integer_costs_do_not_overflow_int32(self):
        # Values beyond int32 must fall back to the float64 path and still
        # match the scalar solver instead of wrapping around.
        stack = np.array([[[2**31, 1], [1, 2**31]]], dtype=np.int64)
        assignments, totals = greedy_assignment_batch(stack)
        ref_assignment, ref_total = greedy_assignment(stack[0])
        np.testing.assert_array_equal(assignments[0], ref_assignment)
        assert totals[0] == ref_total

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            greedy_assignment_batch(np.zeros((2, 2)))

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError):
            greedy_assignment_batch(np.zeros((2, 3, 2)))


class TestHungarian:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_square(self, seed):
        cost = random_cost(7, 7, seed)
        _, total = hungarian_assignment(cost)
        rows, cols = linear_sum_assignment(cost)
        assert total == pytest.approx(cost[rows, cols].sum())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_rectangular(self, seed):
        cost = random_cost(4, 9, seed + 100)
        _, total = hungarian_assignment(cost)
        rows, cols = linear_sum_assignment(cost)
        assert total == pytest.approx(cost[rows, cols].sum())

    def test_returns_valid_assignment(self):
        cost = random_cost(6, 6, 3)
        assignment, _ = hungarian_assignment(cost)
        validate_assignment(assignment, 6)

    def test_rejects_infinite(self):
        cost = np.ones((2, 2))
        cost[0, 0] = np.inf
        with pytest.raises(ValueError):
            hungarian_assignment(cost)

    def test_not_worse_than_greedy(self):
        for seed in range(6):
            cost = random_cost(8, 10, seed + 50)
            _, hung = hungarian_assignment(cost)
            _, greedy = greedy_assignment(cost)
            assert hung <= greedy + 1e-9

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_seed_loop(self, seed):
        """Same assignment and total as the in-place seed loop, ties included."""
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(rows, 36))
        kind = seed % 4
        if kind == 0:
            cost = rng.random((rows, cols)) * 10.0
        elif kind == 1:
            cost = np.floor(rng.random((rows, cols)) * 3.0)
        elif kind == 2:
            cost = np.full((rows, cols), float(rng.integers(0, 3)))
        else:
            cost = rng.normal(size=(rows, cols)) * 1e6
        assignment, total = hungarian_assignment(cost)
        ref_assignment, ref_total = seed_hungarian_assignment(cost)
        np.testing.assert_array_equal(assignment, ref_assignment)
        assert total == ref_total


class TestBSuitor:
    def test_bmatching_respects_capacities(self):
        weights = random_cost(6, 6, 0)
        pairs = bsuitor_bmatching(weights, b_left=2, b_right=2)
        left_count = np.zeros(6, dtype=int)
        right_count = np.zeros(6, dtype=int)
        for left, right in pairs:
            left_count[left] += 1
            right_count[right] += 1
        assert left_count.max() <= 2 and right_count.max() <= 2

    def test_half_approximation_bound(self):
        # For b=1 the optimum is the assignment-problem maximum.
        for seed in range(6):
            weights = random_cost(6, 6, seed + 10) + 0.1
            pairs = bsuitor_bmatching(weights, 1, 1)
            achieved = sum(weights[left, right] for left, right in pairs)
            rows, cols = linear_sum_assignment(-weights)
            optimum = weights[rows, cols].sum()
            assert achieved >= 0.5 * optimum - 1e-9

    def test_no_edges_below_threshold(self):
        weights = np.full((3, 3), -1.0)
        assert bsuitor_bmatching(weights, 1, 1, min_weight=0.0) == []

    def test_assignment_front_end_valid(self):
        cost = random_cost(5, 7, 4)
        assignment, total = bsuitor_assignment(cost)
        validate_assignment(assignment, 7)
        assert total == pytest.approx(assignment_cost(cost, assignment))

    def test_assignment_near_optimal_on_sparse_costs(self):
        # Zero-cost perfect matching exists; the half-approximation finds one
        # with cost no worse than greedy on such easy instances.
        cost = np.ones((5, 5)) - np.eye(5)
        assignment, total = bsuitor_assignment(cost)
        validate_assignment(assignment, 5)
        assert total <= 2.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            bsuitor_bmatching(np.ones((2, 2)), b_left=0)

    def test_rejects_more_rows_than_cols(self):
        with pytest.raises(ValueError):
            bsuitor_assignment(np.zeros((3, 2)))


class TestDispatch:
    def test_registry_contains_all(self):
        assert set(SOLVERS) == {"greedy", "hungarian", "bsuitor"}

    @pytest.mark.parametrize("method", ["greedy", "hungarian", "bsuitor"])
    def test_solve_assignment_dispatch(self, method):
        cost = random_cost(4, 6, 1)
        assignment, total = solve_assignment(cost, method=method)
        validate_assignment(assignment, 6)
        assert total >= 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_assignment(np.zeros((2, 2)), method="magic")

    def test_validate_assignment_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_assignment(np.array([0, 0]), 3)

    def test_validate_assignment_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_assignment(np.array([0, 5]), 3)

    def test_assignment_cost_checks_length(self):
        with pytest.raises(ValueError):
            assignment_cost(np.zeros((3, 3)), np.array([0, 1]))


class TestMatchingProperties:
    @given(st.integers(0, 100_000), st.integers(2, 7), st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_hungarian_optimal_property(self, seed, rows, cols):
        if rows > cols:
            rows, cols = cols, rows
        cost = np.random.default_rng(seed).random((rows, cols))
        assignment, total = hungarian_assignment(cost)
        validate_assignment(assignment, cols)
        scipy_rows, scipy_cols = linear_sum_assignment(cost)
        assert total == pytest.approx(cost[scipy_rows, scipy_cols].sum(), abs=1e-9)

    @given(st.integers(0, 100_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_greedy_within_factor_two_of_optimum_maximisation(self, seed, n):
        # Greedy on (max - cost) is a half-approximation for maximisation.
        cost = np.random.default_rng(seed).random((n, n))
        weights = cost.max() - cost
        assignment, _ = greedy_assignment(-weights - 1e-12)
        achieved = weights[np.arange(n), assignment].sum()
        rows, cols = linear_sum_assignment(-weights)
        optimum = weights[rows, cols].sum()
        assert achieved >= 0.5 * optimum - 1e-9
