"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_fraction,
    check_non_negative_int,
    check_permutation,
    check_positive_int,
    check_probability_ratio,
    check_square_matrix,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(4), "x") == 4


class TestCheckNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "x")


class TestCheckFraction:
    def test_accepts_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_fraction(-0.1, "x")

    def test_exclusive_high(self):
        with pytest.raises(ValueError):
            check_fraction(1.0, "x", inclusive_high=False)

    @pytest.mark.parametrize("inclusive_high", [True, False])
    def test_rejects_nan(self, inclusive_high):
        with pytest.raises(ValueError, match="x must be a number"):
            check_fraction(float("nan"), "x", inclusive_high=inclusive_high)
        with pytest.raises(ValueError, match="x must be a number"):
            check_fraction(np.float64("nan"), "x", inclusive_high=inclusive_high)

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_fraction("half", "x")


class TestCheckSquareMatrix:
    def test_accepts_square(self):
        mat = check_square_matrix(np.zeros((3, 3)), "m")
        assert mat.shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_square_matrix(np.zeros((2, 3)), "m")

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            check_square_matrix(np.zeros(4), "m")


class TestCheckPermutation:
    def test_accepts_valid(self):
        perm = check_permutation([2, 0, 1], 3)
        assert perm.dtype == np.int64
        np.testing.assert_array_equal(perm, [2, 0, 1])

    def test_accepts_identity_and_empty(self):
        np.testing.assert_array_equal(check_permutation(np.arange(5), 5), np.arange(5))
        assert check_permutation([], 0).size == 0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            check_permutation([0, 1], 3)
        with pytest.raises(ValueError):
            check_permutation(np.zeros((2, 2), dtype=int), 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_permutation([0, 1, 3], 3)
        with pytest.raises(ValueError):
            check_permutation([-1, 0, 1], 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            check_permutation([0, 1, 1], 3)


class TestCheckProbabilityRatio:
    def test_normalises(self):
        sa0, sa1 = check_probability_ratio(9.0, 1.0)
        assert sa0 == pytest.approx(0.9)
        assert sa1 == pytest.approx(0.1)

    def test_one_sided(self):
        assert check_probability_ratio(1.0, 0.0) == (1.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability_ratio(-1.0, 1.0)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            check_probability_ratio(0.0, 0.0)
