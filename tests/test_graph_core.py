"""Tests for Graph containers, normalisation, partitioning and sampling."""

import numpy as np
import pytest

from repro.graph.graph import Graph, graph_from_edges
from repro.graph.normalize import add_self_loops, normalize_adjacency, row_normalize
from repro.graph.partition import partition_graph
from repro.graph.sampling import ClusterBatchSampler
from repro.graph.sparse import CSRMatrix


def ring_graph(n=12, num_classes=3):
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    features = np.random.default_rng(0).normal(size=(n, 4))
    labels = np.arange(n) % num_classes
    return graph_from_edges(n, edges, features, labels, name="ring")


class TestGraphContainer:
    def test_graph_from_edges_symmetrises(self):
        graph = ring_graph()
        dense = graph.adjacency.to_dense()
        np.testing.assert_array_equal(dense, dense.T)

    def test_self_loops_removed(self):
        edges = np.array([[0, 0], [0, 1]])
        graph = graph_from_edges(3, edges, np.zeros((3, 2)), np.zeros(3, dtype=int))
        assert graph.adjacency.to_dense()[0, 0] == 0

    def test_counts(self):
        graph = ring_graph(10)
        assert graph.num_nodes == 10
        assert graph.num_edges == 20  # both directions stored
        assert graph.num_features == 4
        assert graph.num_classes == 3
        assert not graph.is_multilabel

    def test_multilabel_detection(self, tiny_multilabel_graph):
        assert tiny_multilabel_graph.is_multilabel
        assert tiny_multilabel_graph.num_classes == 5

    def test_degrees(self):
        graph = ring_graph(8)
        np.testing.assert_array_equal(graph.degrees(), np.full(8, 2.0))

    def test_subgraph_induced_edges(self):
        graph = ring_graph(10)
        sub = graph.subgraph(np.array([0, 1, 2, 5]))
        dense = sub.adjacency.to_dense()
        assert dense[0, 1] == 1 and dense[1, 2] == 1
        assert dense[2, 3] == 0  # node 5 not adjacent to node 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Graph(
                adjacency=CSRMatrix.identity(3),
                features=np.zeros((4, 2)),
                labels=np.zeros(3, dtype=int),
                train_mask=np.ones(3, dtype=bool),
                val_mask=np.zeros(3, dtype=bool),
                test_mask=np.zeros(3, dtype=bool),
            )


class TestNormalization:
    def test_add_self_loops(self):
        adjacency = ring_graph(6).adjacency
        with_loops = add_self_loops(adjacency)
        assert np.all(np.diag(with_loops.to_dense()) == 1.0)

    def test_add_self_loops_idempotent(self):
        adjacency = add_self_loops(ring_graph(6).adjacency)
        again = add_self_loops(adjacency)
        np.testing.assert_array_equal(adjacency.to_dense(), again.to_dense())

    def test_symmetric_normalization_rows(self):
        adjacency = ring_graph(6).adjacency
        norm = normalize_adjacency(adjacency, self_loops=True, symmetric=True)
        dense = norm.to_dense()
        # Symmetric normalisation of a regular ring graph: every entry 1/3.
        np.testing.assert_allclose(dense[dense > 0], 1.0 / 3.0)

    def test_random_walk_normalization(self):
        adjacency = ring_graph(6).adjacency
        norm = normalize_adjacency(adjacency, self_loops=False, symmetric=False)
        np.testing.assert_allclose(norm.row_sums(), np.ones(6))

    def test_isolated_node_handled(self):
        adjacency = CSRMatrix.zeros((3, 3))
        norm = normalize_adjacency(adjacency, self_loops=False, symmetric=False)
        assert np.all(np.isfinite(norm.to_dense()))

    def test_row_normalize(self):
        features = np.array([[1.0, 3.0], [0.0, 0.0], [-2.0, 2.0]])
        normed = row_normalize(features)
        np.testing.assert_allclose(np.abs(normed).sum(axis=1), [1.0, 0.0, 1.0])


class TestPartitioning:
    def test_partition_covers_all_nodes(self, tiny_graph):
        result = partition_graph(tiny_graph.adjacency, 4, seed=0)
        assert result.assignment.shape == (tiny_graph.num_nodes,)
        assert set(np.unique(result.assignment)) <= set(range(4))

    def test_partition_balance(self, tiny_graph):
        result = partition_graph(tiny_graph.adjacency, 4, seed=0)
        sizes = result.part_sizes()
        assert sizes.sum() == tiny_graph.num_nodes
        assert sizes.max() <= 2.5 * sizes.mean()

    def test_single_part(self, tiny_graph):
        result = partition_graph(tiny_graph.adjacency, 1)
        assert result.edge_cut == 0
        assert np.all(result.assignment == 0)

    def test_too_many_parts_raises(self):
        adjacency = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            partition_graph(adjacency, 10)

    def test_edge_cut_reported(self, tiny_graph):
        result = partition_graph(tiny_graph.adjacency, 3, seed=1)
        rows, cols, _ = tiny_graph.adjacency.coo()
        expected = int(
            np.count_nonzero(result.assignment[rows] != result.assignment[cols]) // 2
        )
        assert result.edge_cut == expected

    def test_community_graph_low_cut(self):
        # Two disconnected cliques must be separated with zero edge cut.
        edges = []
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append([base + i, base + j])
        graph = graph_from_edges(
            10, np.array(edges), np.zeros((10, 2)), np.zeros(10, dtype=int)
        )
        result = partition_graph(graph.adjacency, 2, seed=0)
        assert result.edge_cut == 0

    def test_part_nodes_accessor(self, tiny_graph):
        result = partition_graph(tiny_graph.adjacency, 3, seed=2)
        collected = np.sort(np.concatenate([result.part_nodes(p) for p in range(3)]))
        np.testing.assert_array_equal(collected, np.arange(tiny_graph.num_nodes))
        with pytest.raises(IndexError):
            result.part_nodes(99)


class TestSampling:
    def test_batches_cover_graph(self, tiny_graph):
        sampler = ClusterBatchSampler(tiny_graph, num_parts=6, batch_clusters=2, seed=0)
        nodes = np.concatenate([b.subgraph.node_ids for b in sampler.epoch()])
        np.testing.assert_array_equal(np.sort(nodes), np.arange(tiny_graph.num_nodes))

    def test_num_batches(self, tiny_graph):
        sampler = ClusterBatchSampler(tiny_graph, num_parts=6, batch_clusters=4, seed=0)
        assert sampler.num_batches == 2

    def test_batch_clusters_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            ClusterBatchSampler(tiny_graph, num_parts=2, batch_clusters=4)
