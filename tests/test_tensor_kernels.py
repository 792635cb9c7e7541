"""Tests for the segment-reduce sparse kernel layer.

Covers three contracts:

* **kernel correctness/equivalence** — the reduceat-driven kernels reproduce
  the seed ``np.add.at`` / ``from_coo`` implementations (bit-identical for
  the structural kernels, tight-tolerance for the reassociated float
  reductions);
* **gradients** — finite-difference checks for ``spmm``,
  ``scatter_add_rows``, ``gather_rows`` and the new ``edge_softmax`` op
  against dense references;
* **laziness** — ``spmm`` builds no transpose in eval/no-grad forwards and
  memoises it on the ``CSRMatrix`` once backward runs.
"""

import numpy as np
import pytest

from repro.graph.sparse import CSRMatrix
from repro.tensor import kernels, ops
from repro.tensor.tensor import Tensor, no_grad


def random_csr(rows=12, cols=10, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    dense[3] = 0.0  # guarantee an empty row
    return CSRMatrix.from_dense(dense), dense


def numerical_gradient(fn, values, eps=1e-6):
    values = np.asarray(values, dtype=np.float64)
    grad = np.zeros_like(values)
    flat = values.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(values)
        flat[i] = original - eps
        minus = fn(values)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)

    def scalar_fn(vals):
        with no_grad():
            return build_loss(Tensor(vals)).item()

    tensor = Tensor(values.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    numeric = numerical_gradient(scalar_fn, values.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)


class TestSegmentSum:
    def test_matches_add_at_unsorted(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(200, 4))
        ids = rng.integers(0, 23, size=200)
        seed_out = np.zeros((23, 4))
        np.add.at(seed_out, ids, values)
        np.testing.assert_allclose(
            kernels.segment_sum(values, ids, 23), seed_out, rtol=1e-13, atol=1e-13
        )

    def test_sorted_fast_path(self):
        values = np.arange(12.0).reshape(6, 2)
        ids = np.array([0, 0, 2, 2, 2, 5])
        before = kernels.COUNTERS.segment_sum_sorted_fast_path
        out = kernels.segment_sum(values, ids, 7)
        assert kernels.COUNTERS.segment_sum_sorted_fast_path == before + 1
        expected = np.zeros((7, 2))
        np.add.at(expected, ids, values)
        np.testing.assert_array_equal(out, expected)

    def test_empty_segments_stay_zero(self):
        out = kernels.segment_sum(np.ones((3, 2)), np.array([1, 1, 4]), 6)
        np.testing.assert_array_equal(out[[0, 2, 3, 5]], 0.0)
        np.testing.assert_array_equal(out[1], [2.0, 2.0])

    def test_no_values(self):
        out = kernels.segment_sum(np.zeros((0, 3)), np.zeros(0, dtype=int), 4)
        assert out.shape == (4, 3)
        assert not out.any()

    def test_1d_values(self):
        values = np.array([1.0, 2.0, 4.0])
        np.testing.assert_array_equal(
            kernels.segment_sum(values, np.array([2, 0, 2]), 3), [2.0, 0.0, 5.0]
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            kernels.segment_sum(np.ones(2), np.array([0, 5]), 3)
        with pytest.raises(ValueError):
            kernels.segment_sum(np.ones(2), np.array([-1, 0]), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernels.segment_sum(np.ones((3, 2)), np.array([0, 1]), 3)

    def test_precomputed_plan_matches_inline(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(60, 3))
        ids = rng.integers(0, 9, size=60)
        plan = kernels.segment_plan(ids, 9)
        inline = kernels.segment_sum(values, ids, 9)
        planned = kernels.segment_sum(values, ids, 9, plan=plan)
        np.testing.assert_array_equal(planned, inline)
        # Plan reuse counts as the sorted fast path (no argsort this call).
        before = kernels.COUNTERS.segment_sum_sorted_fast_path
        kernels.segment_sum(values, ids, 9, plan=plan)
        assert kernels.COUNTERS.segment_sum_sorted_fast_path == before + 1

    def test_mismatched_plan_rejected(self):
        plan = kernels.segment_plan(np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            kernels.segment_sum(np.ones(4), np.array([0, 1, 2, 2]), 3, plan=plan)
        with pytest.raises(ValueError):
            kernels.segment_sum(np.ones(2), np.array([0, 1]), 5, plan=plan)
        # Same length and segment count but different ids must not silently
        # scatter through the wrong plan.
        with pytest.raises(ValueError):
            kernels.segment_sum(np.ones(2), np.array([1, 0]), 3, plan=plan)

    def test_plan_accepts_equal_content_ids(self):
        ids = np.array([2, 0, 2])
        plan = kernels.segment_plan(ids, 3)
        out = kernels.segment_sum(np.ones(3), ids.copy(), 3, plan=plan)
        np.testing.assert_array_equal(out, [1.0, 0.0, 2.0])


class TestCSRKernels:
    def test_matmat_matches_dense(self):
        mat, dense = random_csr(seed=1)
        x = np.random.default_rng(2).normal(size=(10, 5))
        np.testing.assert_allclose(mat.dot(x), dense @ x, rtol=1e-12, atol=1e-12)

    def test_matmat_matches_seed_scatter(self):
        """Same entries, same per-row visit order as the seed np.add.at."""
        mat, _ = random_csr(seed=3)
        x = np.random.default_rng(4).normal(size=(10, 3))
        seed_out = np.zeros((12, 3))
        rows = np.repeat(np.arange(12), np.diff(mat.indptr))
        np.add.at(seed_out, rows, mat.data[:, None] * x[mat.indices])
        np.testing.assert_allclose(mat.dot(x), seed_out, rtol=1e-13, atol=1e-13)

    def test_matmat_empty_matrix(self):
        mat = CSRMatrix.zeros((4, 6))
        np.testing.assert_array_equal(mat.dot(np.ones((6, 2))), np.zeros((4, 2)))

    def test_row_sums_match_dense(self):
        mat, dense = random_csr(seed=5)
        np.testing.assert_allclose(
            mat.row_sums(), dense.sum(axis=1), rtol=1e-13, atol=1e-13
        )

    def test_transpose_bit_identical_to_seed(self):
        """The counting transpose reproduces the seed from_coo round-trip."""
        mat, _ = random_csr(rows=15, cols=9, seed=6)
        rows = np.repeat(np.arange(15), np.diff(mat.indptr))
        seed_t = CSRMatrix.from_coo(
            mat.indices, rows, mat.data, (9, 15), sum_duplicates=False
        )
        transposed = mat.transpose()
        np.testing.assert_array_equal(transposed.indptr, seed_t.indptr)
        np.testing.assert_array_equal(transposed.indices, seed_t.indices)
        np.testing.assert_array_equal(transposed.data, seed_t.data)

    @pytest.mark.parametrize("cols", [1, 4, 300])
    def test_transpose_long_column_runs_bit_identical_to_seed(self, cols):
        rng = np.random.default_rng(cols)
        rows = 400
        dense = (rng.random((rows, cols)) < 0.6) * rng.normal(size=(rows, cols))
        mat = CSRMatrix.from_dense(dense)
        entry_rows = np.repeat(np.arange(rows), np.diff(mat.indptr))
        seed_t = CSRMatrix.from_coo(
            mat.indices, entry_rows, mat.data, (cols, rows), sum_duplicates=False
        )
        transposed = mat.transpose()
        for name in ("indptr", "indices", "data"):
            assert getattr(transposed, name).tobytes() == getattr(seed_t, name).tobytes()

    @pytest.mark.parametrize(
        "keys",
        [
            np.zeros(0, dtype=np.int64),
            np.array([5]),
            np.arange(1000)[::-1],
            np.random.default_rng(0).integers(0, 3, 5000),
            np.random.default_rng(1).integers(0, 10**12, 5000),
            np.random.default_rng(2).integers(0, 100, 5000),
            np.sort(np.random.default_rng(3).integers(0, 40, 5000)),
        ],
    )
    def test_stable_argsort_equals_numpy_stable(self, keys):
        want = np.argsort(keys, kind="stable")
        bound = int(keys.max()) + 1 if keys.size else 1
        np.testing.assert_array_equal(kernels.stable_argsort(keys, bound), want)
        # A bound whose composite keys would overflow int64 takes the merge sort.
        np.testing.assert_array_equal(kernels.stable_argsort(keys, 2**62), want)

    @pytest.mark.parametrize("shape", [(600, 64), (300, 12), (50, 1)])
    def test_matmat_gather_bit_identical(self, shape):
        """The clipped gather reads the same values as a plain row gather."""
        rows, features = shape
        rng = np.random.default_rng(rows)
        mat = CSRMatrix.from_dense(
            (rng.random((rows, rows)) < 0.03) * rng.normal(size=(rows, rows))
        )
        x = rng.normal(size=(rows, features))
        nonempty = np.flatnonzero(np.diff(mat.indptr) > 0)
        contrib = np.ascontiguousarray((x[mat.indices] * mat.data[:, None]).T)
        want = np.zeros((rows, features))
        want[nonempty] = np.add.reduceat(contrib, mat.indptr[nonempty], axis=1).T
        assert mat.dot(x).tobytes() == want.tobytes()

    def test_transpose_memoised_and_symmetric(self):
        mat, dense = random_csr(seed=7)
        misses = kernels.COUNTERS.transpose_cache_misses
        hits = kernels.COUNTERS.transpose_cache_hits
        t1 = mat.T
        assert kernels.COUNTERS.transpose_cache_misses == misses + 1
        t2 = mat.T
        assert t2 is t1
        assert kernels.COUNTERS.transpose_cache_hits == hits + 1
        # Involution: the memo is installed both ways.
        assert t1.T is mat
        np.testing.assert_allclose(t1.to_dense(), dense.T)

    def test_extract_block_bit_identical(self):
        mat, dense = random_csr(rows=20, cols=20, seed=8)
        for (r0, r1, c0, c1) in [(0, 20, 0, 20), (3, 11, 5, 17), (4, 4, 2, 9), (0, 5, 18, 20)]:
            np.testing.assert_array_equal(
                mat.extract_block(r0, r1, c0, c1), dense[r0:r1, c0:c1]
            )

    def test_submatrix_bit_identical(self):
        mat, dense = random_csr(rows=20, cols=20, seed=9)
        for ids in [np.array([0, 4, 5, 13, 19]), np.arange(20), np.array([7])]:
            np.testing.assert_array_equal(
                mat.submatrix(ids).to_dense(), dense[np.ix_(ids, ids)]
            )

    def test_submatrix_empty(self):
        assert CSRMatrix.identity(5).submatrix(np.array([], dtype=np.int64)).shape == (0, 0)


class TestEdgeSoftmaxKernel:
    def _edges(self, mask):
        csr = CSRMatrix.from_dense(mask.astype(float))
        return csr.indptr, csr.indices

    def test_matches_dense_masked_softmax(self):
        rng = np.random.default_rng(0)
        mask = rng.random((9, 9)) < 0.4
        np.fill_diagonal(mask, True)  # every row non-empty
        indptr, cols = self._edges(mask)
        row_ids = kernels.csr_row_ids(indptr)
        scores = rng.normal(size=indptr[-1])
        alpha = kernels.edge_softmax(scores, indptr)
        logits = np.full((9, 9), -1e9)
        logits[row_ids, cols] = scores
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        dense_soft = exps / exps.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(alpha, dense_soft[row_ids, cols], rtol=1e-14)
        # Each row's attention sums to one.
        sums = kernels.segment_sum(alpha, row_ids, 9)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-14)

    def test_multihead_scores(self):
        rng = np.random.default_rng(1)
        mask = np.eye(5, dtype=bool)
        mask[0, 3] = mask[3, 0] = True
        indptr, _ = self._edges(mask)
        scores = rng.normal(size=(int(indptr[-1]), 3))
        alpha = kernels.edge_softmax(scores, indptr)
        row_ids = kernels.csr_row_ids(indptr)
        sums = kernels.segment_sum(alpha, row_ids, 5)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-14)

    def test_single_edge_rows_are_one(self):
        indptr = np.array([0, 1, 2])
        alpha = kernels.edge_softmax(np.array([13.0, -40.0]), indptr)
        np.testing.assert_array_equal(alpha, [1.0, 1.0])

    def test_empty_edge_list(self):
        out = kernels.edge_softmax(np.zeros(0), np.zeros(4, dtype=np.int64))
        assert out.shape == (0,)

    def test_score_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernels.edge_softmax(np.zeros(3), np.array([0, 1, 2]))


class TestGradients:
    def test_spmm_gradient_sparse(self):
        mat, dense = random_csr(rows=6, cols=5, seed=10)
        check_gradient(lambda x: (ops.spmm(mat, x) ** 2).sum(), (5, 3))

    def test_spmm_gradient_matches_dense_adjacency(self):
        mat, dense = random_csr(rows=6, cols=5, seed=11)
        rng = np.random.default_rng(12)
        values = rng.normal(size=(5, 3))
        sparse_x = Tensor(values.copy(), requires_grad=True)
        dense_x = Tensor(values.copy(), requires_grad=True)
        (ops.spmm(mat, sparse_x) ** 2).sum().backward()
        (ops.spmm(dense, dense_x) ** 2).sum().backward()
        np.testing.assert_allclose(sparse_x.grad, dense_x.grad, rtol=1e-12)

    def test_scatter_add_rows_gradient(self):
        index = np.array([2, 0, 2, 1, 0, 2])
        check_gradient(
            lambda x: (ops.scatter_add_rows(x, index, 4) ** 2).sum(), (6, 3)
        )

    def test_gather_rows_gradient(self):
        index = np.array([0, 0, 3, 1, 3])
        check_gradient(lambda x: (ops.gather_rows(x, index) ** 2).sum(), (4, 2))

    def test_edge_softmax_gradient(self):
        indptr = np.array([0, 3, 3, 5, 6])
        weights = np.arange(1.0, 7.0)[:, None]
        check_gradient(
            lambda s: (ops.edge_softmax(s, indptr) * weights).sum() ** 2,
            (6, 1),
            atol=1e-6,
        )

    def test_edge_softmax_gradient_matches_dense_softmax(self):
        """Same Jacobian-vector product as the dense masked softmax."""
        rng = np.random.default_rng(13)
        mask = rng.random((7, 7)) < 0.5
        np.fill_diagonal(mask, True)
        csr = CSRMatrix.from_dense(mask.astype(float))
        indptr, cols = csr.indptr, csr.indices
        row_ids = kernels.csr_row_ids(indptr)
        scores = rng.normal(size=int(indptr[-1]))
        downstream = rng.normal(size=int(indptr[-1]))

        sparse_in = Tensor(scores.copy(), requires_grad=True)
        (ops.edge_softmax(sparse_in, indptr) * downstream).sum().backward()

        dense_logits = np.full((7, 7), -1e9)
        dense_logits[row_ids, cols] = scores
        dense_grad_out = np.zeros((7, 7))
        dense_grad_out[row_ids, cols] = downstream
        dense_in = Tensor(dense_logits, requires_grad=True)
        (ops.softmax(dense_in, axis=1) * dense_grad_out).sum().backward()
        np.testing.assert_allclose(
            sparse_in.grad, dense_in.grad[row_ids, cols], rtol=1e-9, atol=1e-12
        )


class TestSpmmLaziness:
    def test_no_grad_forward_builds_no_transpose(self):
        mat, _ = random_csr(seed=14)
        misses = kernels.COUNTERS.transpose_cache_misses
        with no_grad():
            ops.spmm(mat, Tensor(np.ones((10, 2)), requires_grad=True))
        assert kernels.COUNTERS.transpose_cache_misses == misses
        assert mat._transpose is None

    def test_constant_input_builds_no_transpose(self):
        mat, _ = random_csr(seed=15)
        out = ops.spmm(mat, Tensor(np.ones((10, 2))))
        assert mat._transpose is None
        assert not out.requires_grad

    def test_backward_populates_memo_once(self):
        mat, _ = random_csr(seed=16)
        x = Tensor(np.ones((10, 2)), requires_grad=True)
        ops.spmm(mat, x).sum().backward()
        first = mat._transpose
        assert first is not None
        hits = kernels.COUNTERS.transpose_cache_hits
        y = Tensor(np.ones((10, 2)), requires_grad=True)
        ops.spmm(mat, y).sum().backward()
        assert mat._transpose is first
        assert kernels.COUNTERS.transpose_cache_hits > hits

