"""Dense-vs-sparse GAT equivalence, including under injected SA0/SA1 faults.

The sparse edge-wise attention must reproduce the seed's dense
``masked_fill`` attention (:class:`reference.gat.DenseGAT`) to within 1e-8 —
outputs *and* gradients — on both clean and fault-corrupted binary
adjacencies.  The fault semantics ride on
the corrupted adjacency's edge list: a stuck-at-1 cell inserts an edge
(attention to a non-neighbour), a stuck-at-0 cell removes one.
"""

import numpy as np
import pytest

from repro.graph.sparse import CSRMatrix
from repro.nn.base import BatchInputs
from repro.nn.gat import GAT, attention_edges

from reference.gat import DenseGAT

TOL = 1e-8


def build_pair(graph, **kwargs):
    """Two GATs with identical weights: sparse path and dense path."""
    sparse = GAT(graph.num_features, 8, graph.num_classes, rng=0, **kwargs).eval()
    dense = DenseGAT(graph.num_features, 8, graph.num_classes, rng=0, **kwargs).eval()
    return sparse, dense


def corrupt_adjacency(adjacency: CSRMatrix, num_sa1=5, num_sa0=5, seed=0) -> CSRMatrix:
    """Binary adjacency as a faulty crossbar would read it back.

    ``num_sa1`` zero cells stick at one (spurious edges) and ``num_sa0``
    stored edges stick at zero (dropped edges).
    """
    rng = np.random.default_rng(seed)
    dense = (adjacency.to_dense() > 0).astype(float)
    zeros = np.argwhere(dense == 0)
    ones = np.argwhere(dense == 1)
    for r, c in zeros[rng.choice(len(zeros), size=num_sa1, replace=False)]:
        dense[r, c] = 1.0
    for r, c in ones[rng.choice(len(ones), size=num_sa0, replace=False)]:
        dense[r, c] = 0.0
    return CSRMatrix.from_dense(dense)


class TestSparseDenseEquivalence:
    def test_fault_free_outputs_match(self, tiny_graph):
        sparse, dense = build_pair(tiny_graph, dropout=0.0)
        batch = BatchInputs(features=tiny_graph.features, adjacency=tiny_graph.adjacency)
        np.testing.assert_allclose(
            sparse(batch).data, dense(batch).data, atol=TOL, rtol=0
        )

    def test_fault_injected_outputs_match(self, tiny_graph):
        sparse, dense = build_pair(tiny_graph, dropout=0.0)
        corrupted = corrupt_adjacency(tiny_graph.adjacency, seed=1)
        batch = BatchInputs(features=tiny_graph.features, adjacency=corrupted)
        np.testing.assert_allclose(
            sparse(batch).data, dense(batch).data, atol=TOL, rtol=0
        )

    def test_faults_change_both_paths_alike(self, tiny_graph):
        """SA0/SA1 corruption must flow through the sparse edge list."""
        sparse, dense = build_pair(tiny_graph, dropout=0.0)
        clean = BatchInputs(features=tiny_graph.features, adjacency=tiny_graph.adjacency)
        corrupted = BatchInputs(
            features=tiny_graph.features,
            adjacency=corrupt_adjacency(tiny_graph.adjacency, seed=2),
        )
        sparse_delta = np.abs(sparse(clean).data - sparse(corrupted).data).max()
        dense_delta = np.abs(dense(clean).data - dense(corrupted).data).max()
        assert sparse_delta > 1e-6  # the corruption is visible...
        np.testing.assert_allclose(sparse_delta, dense_delta, atol=TOL)  # ...equally

    def test_gradients_match(self, tiny_graph):
        sparse, dense = build_pair(tiny_graph, dropout=0.0)
        sparse.train()
        dense.train()
        corrupted = corrupt_adjacency(tiny_graph.adjacency, seed=3)
        batch = BatchInputs(features=tiny_graph.features, adjacency=corrupted)
        (sparse(batch) ** 2).sum().backward()
        (dense(batch) ** 2).sum().backward()
        sparse_params = dict(sparse.named_parameters())
        dense_params = dict(dense.named_parameters())
        assert set(sparse_params) == set(dense_params)
        for name, param in sparse_params.items():
            np.testing.assert_allclose(
                param.grad, dense_params[name].grad, atol=TOL, rtol=0,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_short_training_runs_track(self, tiny_graph):
        from repro.tensor.optim import Adam

        results = []
        for model_cls in (GAT, DenseGAT):
            model = model_cls(
                tiny_graph.num_features, 8, tiny_graph.num_classes, rng=0, dropout=0.0
            )
            optimizer = Adam(model.parameters(), lr=0.01)
            batch = BatchInputs(
                features=tiny_graph.features, adjacency=tiny_graph.adjacency
            )
            losses = []
            for _ in range(5):
                loss = (model(batch) ** 2).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            results.append(losses)
        np.testing.assert_allclose(results[0], results[1], atol=1e-7, rtol=0)


class TestAttentionEdges:
    def test_support_matches_dense_mask(self, tiny_graph):
        corrupted = corrupt_adjacency(tiny_graph.adjacency, seed=4)
        indptr, cols = attention_edges(corrupted)
        n = corrupted.shape[0]
        support = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        support[rows, cols] = True
        expected = (corrupted.to_dense() > 0) | np.eye(n, dtype=bool)
        np.testing.assert_array_equal(support, expected)

    def test_stored_zeros_are_not_edges(self):
        """Explicitly stored zeros (SA0-cleared cells) must not attend."""
        adj = CSRMatrix(
            np.array([0, 2, 3, 3]),
            np.array([1, 2, 0]),
            np.array([1.0, 0.0, 1.0]),
            (3, 3),
        )
        indptr, cols = attention_edges(adj)
        support = set(zip(np.repeat(np.arange(3), np.diff(indptr)).tolist(), cols.tolist()))
        assert support == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}

    def test_duplicate_entries_resolve_last_wins(self):
        """Duplicate stored coordinates follow to_dense()'s last-wins rule."""
        adj = CSRMatrix(
            np.array([0, 2, 3, 3]),
            np.array([1, 1, 0]),
            np.array([1.0, -1.0, 1.0]),
            (3, 3),
        )
        indptr, cols = attention_edges(adj)
        support = set(
            zip(np.repeat(np.arange(3), np.diff(indptr)).tolist(), cols.tolist())
        )
        # (0, 1) stored twice, last value -1 -> masked out, exactly like the
        # dense path's to_dense() > 0.
        expected = (adj.to_dense() > 0) | np.eye(3, dtype=bool)
        assert support == set(zip(*np.nonzero(expected)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            attention_edges(CSRMatrix.zeros((2, 3)))
