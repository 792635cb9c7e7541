"""Unit and property-based tests for the CSR sparse matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graph.sparse import CSRMatrix

from reference.graph import seed_from_coo


def random_sparse_dense(rows=6, cols=5, density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    return dense


small_dense = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-5, 5, allow_nan=False).map(lambda x: 0.0 if abs(x) < 2.5 else x),
)


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = random_sparse_dense()
        np.testing.assert_allclose(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        mat = CSRMatrix.from_coo([0, 0], [1, 1], [1.0, 2.0], (2, 2))
        assert mat.to_dense()[0, 1] == 3.0
        assert mat.nnz == 1

    def test_from_coo_without_summing(self):
        mat = CSRMatrix.from_coo([0, 0], [1, 1], [1.0, 2.0], (2, 2), sum_duplicates=False)
        assert mat.nnz == 2

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_from_coo_equals_the_double_sort_seed(self, seed, sum_duplicates):
        """One key sort gives the seed's CSR bit for bit, duplicates included."""
        rng = np.random.default_rng(seed)
        n_rows, n_cols = (int(x) for x in rng.integers(1, 40, 2))
        nnz = int(rng.integers(0, 4 * n_rows * n_cols))
        rows = rng.integers(0, n_rows, nnz)
        cols = rng.integers(0, n_cols, nnz)
        values = rng.choice([-2.0, -0.0, 0.0, 0.1, 0.7, 1e16, 3.0], nnz)
        reference = seed_from_coo(rows, cols, values, (n_rows, n_cols), sum_duplicates)
        candidate = CSRMatrix.from_coo(rows, cols, values, (n_rows, n_cols), sum_duplicates)
        assert candidate.shape == reference.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(candidate, name), getattr(reference, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("distinct", [1, 3, 50])
    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_from_coo_long_duplicate_runs_equal_the_seed(self, distinct, sum_duplicates):
        """Runs of thousands of equal keys keep input order (summation order)."""
        rng = np.random.default_rng(distinct)
        n_rows, n_cols = 9, 7
        coords = rng.integers(0, n_rows * n_cols, distinct)
        keys = coords[rng.integers(0, distinct, 6000)]
        rows, cols = np.divmod(keys, n_cols)
        values = rng.choice([1e16, -1e16, 1.0, 0.1, -0.0, 3.0], keys.size)
        reference = seed_from_coo(rows, cols, values, (n_rows, n_cols), sum_duplicates)
        candidate = CSRMatrix.from_coo(rows, cols, values, (n_rows, n_cols), sum_duplicates)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(candidate, name), getattr(reference, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    def test_identity(self):
        np.testing.assert_array_equal(CSRMatrix.identity(4).to_dense(), np.eye(4))

    def test_zeros(self):
        mat = CSRMatrix.zeros((3, 5))
        assert mat.nnz == 0
        assert mat.shape == (3, 5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0], [9], [1.0], (2, 2))

    def test_invalid_indptr_raises(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 1))

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(CSRMatrix.identity(2))


class TestLinearAlgebra:
    def test_dot_matches_dense(self):
        dense = random_sparse_dense(7, 5, seed=1)
        mat = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(2).normal(size=(5, 3))
        np.testing.assert_allclose(mat.dot(x), dense @ x)

    def test_dot_vector(self):
        dense = random_sparse_dense(4, 4, seed=3)
        mat = CSRMatrix.from_dense(dense)
        v = np.arange(4.0)
        np.testing.assert_allclose(mat.dot(v), dense @ v)

    def test_dot_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix.identity(3).dot(np.ones((4, 2)))

    def test_transpose(self):
        dense = random_sparse_dense(5, 3, seed=4)
        np.testing.assert_allclose(
            CSRMatrix.from_dense(dense).transpose().to_dense(), dense.T
        )

    def test_scale(self):
        dense = random_sparse_dense(seed=5)
        np.testing.assert_allclose(
            CSRMatrix.from_dense(dense).scale(2.5).to_dense(), dense * 2.5
        )

    def test_scale_rows_cols(self):
        dense = random_sparse_dense(4, 4, seed=6)
        mat = CSRMatrix.from_dense(dense)
        rows = np.array([1.0, 2.0, 3.0, 4.0])
        cols = np.array([0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(mat.scale_rows(rows).to_dense(), dense * rows[:, None])
        np.testing.assert_allclose(mat.scale_cols(cols).to_dense(), dense * cols[None, :])

    def test_row_and_col_sums(self):
        dense = random_sparse_dense(5, 4, seed=7)
        mat = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(mat.row_sums(), dense.sum(axis=1))
        np.testing.assert_allclose(mat.col_sums(), dense.sum(axis=0))

    def test_add(self):
        a = random_sparse_dense(4, 4, seed=8)
        b = random_sparse_dense(4, 4, seed=9)
        result = CSRMatrix.from_dense(a).add(CSRMatrix.from_dense(b))
        np.testing.assert_allclose(result.to_dense(), a + b)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix.identity(2).add(CSRMatrix.identity(3))


class TestStructure:
    def test_extract_block(self):
        dense = random_sparse_dense(8, 8, seed=10)
        mat = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(mat.extract_block(2, 6, 1, 5), dense[2:6, 1:5])

    def test_extract_block_bad_range(self):
        with pytest.raises(ValueError):
            CSRMatrix.identity(4).extract_block(2, 1, 0, 4)

    def test_submatrix(self):
        dense = random_sparse_dense(7, 7, seed=11)
        mat = CSRMatrix.from_dense(dense)
        ids = np.array([1, 3, 6])
        np.testing.assert_allclose(
            mat.submatrix(ids).to_dense(), dense[np.ix_(ids, ids)]
        )

    def test_submatrix_empty(self):
        sub = CSRMatrix.identity(4).submatrix(np.array([], dtype=np.int64))
        assert sub.shape == (0, 0)

    def test_to_binary(self):
        dense = random_sparse_dense(5, 5, seed=12)
        binary = CSRMatrix.from_dense(dense).to_binary().to_dense()
        np.testing.assert_array_equal(binary, (dense != 0).astype(float))

    def test_row_access(self):
        dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        mat = CSRMatrix.from_dense(dense)
        cols, vals = mat.row(1)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [1.0, 3.0])

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            CSRMatrix.identity(2).row(5)

    def test_density(self):
        assert CSRMatrix.identity(4).density == pytest.approx(0.25)

    def test_equality(self):
        dense = random_sparse_dense(3, 3, seed=13)
        assert CSRMatrix.from_dense(dense) == CSRMatrix.from_dense(dense)
        assert CSRMatrix.from_dense(dense) != CSRMatrix.identity(3)


class TestProperties:
    @given(small_dense)
    @settings(max_examples=40, deadline=None)
    def test_dense_roundtrip_property(self, dense):
        np.testing.assert_allclose(CSRMatrix.from_dense(dense).to_dense(), dense)

    @given(small_dense)
    @settings(max_examples=40, deadline=None)
    def test_transpose_involution(self, dense):
        mat = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(mat.transpose().transpose().to_dense(), dense)

    @given(small_dense, st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_spmm_matches_dense_property(self, dense, seed):
        mat = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(seed).normal(size=(dense.shape[1], 2))
        np.testing.assert_allclose(mat.dot(x), dense @ x, atol=1e-9)

    @given(small_dense)
    @settings(max_examples=30, deadline=None)
    def test_row_sums_match_dense(self, dense):
        np.testing.assert_allclose(
            CSRMatrix.from_dense(dense).row_sums(), dense.sum(axis=1), atol=1e-9
        )
