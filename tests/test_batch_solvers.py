"""Tests for the lockstep-batched exact assignment solvers.

The contract of :mod:`repro.core.batch_solvers` is *bit-identical*
per-slice equivalence with the scalar solvers in :mod:`repro.matching` —
same assignments, same totals, same tie-breaking — across random, tied,
degenerate and rectangular instances.  Square-instance assignments are
additionally checked to be genuine permutations via
:func:`repro.utils.validation.check_permutation`.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_solvers import (
    BATCH_SOLVERS,
    bsuitor_assignment_batch,
    hungarian_assignment_batch,
    solve_assignment_batch,
)
from repro.matching.bipartite import SOLVERS, solve_assignment, validate_assignment
from repro.matching.bsuitor import bsuitor_assignment
from repro.matching.greedy import greedy_assignment
from repro.matching.hungarian import hungarian_assignment
from repro.utils.validation import check_permutation

SCALARS = {
    "hungarian": hungarian_assignment,
    "bsuitor": bsuitor_assignment,
    "greedy": greedy_assignment,
}


def random_stack(rng, num, rows, cols, kind):
    """Stacks spanning the interesting regimes, including heavy ties."""
    if kind == "float":
        return rng.random((num, rows, cols)) * 10.0
    if kind == "tied":
        return np.floor(rng.random((num, rows, cols)) * 3.0)
    if kind == "all_ties":
        return np.full((num, rows, cols), float(rng.integers(0, 3)))
    # 'structured': small integers with one uniformly expensive column, the
    # shape an all-SA0 crossbar row induces in the mapping cost matrices.
    stack = rng.integers(0, 4, (num, rows, cols)).astype(float)
    stack[:, :, int(rng.integers(0, cols))] = float(cols + 1)
    return stack


def assert_slicewise_identical(method, stack):
    assignments, totals = solve_assignment_batch(stack, method=method)
    num, rows, cols = stack.shape
    for p in range(num):
        ref_assignment, ref_total = SCALARS[method](stack[p])
        np.testing.assert_array_equal(assignments[p], ref_assignment)
        assert totals[p] == ref_total
        validate_assignment(assignments[p], cols)
        if rows == cols:
            check_permutation(assignments[p], rows)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("method", ["hungarian", "bsuitor", "greedy"])
    @pytest.mark.parametrize("kind", ["float", "tied", "all_ties", "structured"])
    def test_bit_identical_to_scalar(self, method, kind):
        rng = np.random.default_rng(zlib.crc32(f"{method}/{kind}".encode()))
        for trial in range(8):
            num = int(rng.integers(1, 7))
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(rows, 12))
            stack = random_stack(rng, num, rows, cols, kind)
            assert_slicewise_identical(method, stack)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_hungarian_property(self, seed):
        rng = np.random.default_rng(seed)
        num = int(rng.integers(1, 6))
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 9))
        # Quantised costs force plenty of ties.
        stack = np.floor(rng.random((num, rows, cols)) * 4.0)
        assert_slicewise_identical("hungarian", stack)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_bsuitor_property(self, seed):
        rng = np.random.default_rng(seed)
        num = int(rng.integers(1, 6))
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 9))
        stack = np.floor(rng.random((num, rows, cols)) * 4.0)
        assert_slicewise_identical("bsuitor", stack)

    @pytest.mark.parametrize("method", ["hungarian", "bsuitor"])
    def test_single_problem_and_1x1(self, method):
        assert_slicewise_identical(method, np.array([[[3.0]]]))
        assert_slicewise_identical(method, np.array([[[3.0, 1.0]]]))
        rng = np.random.default_rng(5)
        assert_slicewise_identical(method, rng.random((1, 5, 5)))

    @pytest.mark.parametrize("method", ["hungarian", "bsuitor"])
    def test_empty_stack_and_empty_rows(self, method):
        assignments, totals = solve_assignment_batch(
            np.zeros((0, 3, 3)), method=method
        )
        assert assignments.shape == (0, 3) and totals.shape == (0,)
        assignments, totals = solve_assignment_batch(
            np.zeros((2, 0, 3)), method=method
        )
        assert assignments.shape == (2, 0)
        np.testing.assert_array_equal(totals, np.zeros(2))

    def test_hungarian_optimal_vs_scipy(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(11)
        stack = rng.random((6, 5, 8))
        _, totals = hungarian_assignment_batch(stack)
        for p in range(6):
            r, c = linear_sum_assignment(stack[p])
            assert totals[p] == pytest.approx(stack[p][r, c].sum())

    def test_bsuitor_half_approximation_bound(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(12)
        stack = rng.random((6, 6, 6)) * 10.0
        assignments, _ = bsuitor_assignment_batch(stack)
        for p in range(6):
            weights = stack[p].max() - stack[p] + 1.0
            achieved = weights[np.arange(6), assignments[p]].sum()
            rows, cols = linear_sum_assignment(-weights)
            assert achieved >= 0.5 * weights[rows, cols].sum() - 1e-9


class TestValidationAndDispatch:
    def test_registry_mirrors_scalar_solvers(self):
        assert set(BATCH_SOLVERS) == set(SOLVERS)

    def test_greedy_dispatch_matches_scalar(self):
        rng = np.random.default_rng(3)
        stack = np.floor(rng.random((4, 4, 6)) * 3.0)
        assignments, totals = solve_assignment_batch(stack, method="greedy")
        for p in range(4):
            ref_assignment, ref_total = solve_assignment(stack[p], method="greedy")
            np.testing.assert_array_equal(assignments[p], ref_assignment)
            assert totals[p] == ref_total

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_assignment_batch(np.zeros((1, 2, 2)), method="magic")

    @pytest.mark.parametrize(
        "solver", [hungarian_assignment_batch, bsuitor_assignment_batch]
    )
    def test_rejects_non_3d(self, solver):
        with pytest.raises(ValueError):
            solver(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "solver", [hungarian_assignment_batch, bsuitor_assignment_batch]
    )
    def test_rejects_more_rows_than_cols(self, solver):
        with pytest.raises(ValueError):
            solver(np.zeros((1, 3, 2)))

    def test_hungarian_rejects_non_finite(self):
        stack = np.ones((1, 2, 2))
        stack[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            hungarian_assignment_batch(stack)
