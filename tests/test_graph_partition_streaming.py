"""The streaming partitioner's matcher against its lexsort seed.

``_heavy_edge_matching_streaming`` picks each proposer's heaviest live
acceptor and each acceptor's heaviest proposal with segment maxima instead
of the two 3-key ``np.lexsort`` calls of
:func:`reference.graph.seed_heavy_edge_matching_streaming`.  It must return
the same ``(match, num_coarse)`` and draw the same random numbers, so the
generator ends in the same state and a whole ``partition_graph(...,
method="streaming")`` run assigns every node to the same part.
"""

import numpy as np
import pytest

from repro.graph import partition
from repro.graph.datasets import synthetic_graph_streaming
from repro.graph.sparse import CSRMatrix

from reference.graph import seed_heavy_edge_matching_streaming


def random_weighted_graph(rng, n, nnz, symmetric, sum_duplicates):
    """Float weights from a small set (many ties), self-loops, isolated vertices."""
    isolated = rng.random(n) < 0.1
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    loops = rng.random(nnz) < 0.05
    cols[loops] = rows[loops]
    keep = ~isolated[rows] & ~isolated[cols]
    rows, cols = rows[keep], cols[keep]
    vals = rng.choice([0.5, 1.0, 1.5, 2.0, 3.25], rows.size)
    if symmetric:
        rows, cols, vals = (
            np.concatenate((rows, cols)),
            np.concatenate((cols, rows)),
            np.concatenate((vals, vals)),
        )
    return CSRMatrix.from_coo(rows, cols, vals, (n, n), sum_duplicates=sum_duplicates)


def assert_same_matching(adjacency, seed, rounds=4):
    reference_rng = np.random.default_rng(seed)
    candidate_rng = np.random.default_rng(seed)
    reference = seed_heavy_edge_matching_streaming(adjacency, reference_rng, rounds)
    candidate = partition._heavy_edge_matching_streaming(adjacency, candidate_rng, rounds)
    np.testing.assert_array_equal(reference[0], candidate[0])
    assert reference[1] == candidate[1]
    assert reference_rng.bit_generator.state == candidate_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("sum_duplicates", [True, False])
def test_matching_equals_the_lexsort_seed(seed, symmetric, sum_duplicates):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    adjacency = random_weighted_graph(
        rng, n, int(rng.integers(0, 6 * n)), symmetric, sum_duplicates
    )
    assert_same_matching(adjacency, seed + 100, rounds=int(rng.integers(1, 7)))


def test_matching_without_edges_draws_like_the_seed():
    assert_same_matching(CSRMatrix.zeros((7, 7)), 3)
    assert_same_matching(CSRMatrix.identity(5), 4)


def test_streaming_partition_equals_a_seed_matcher_run(monkeypatch):
    graph = synthetic_graph_streaming(3000, 12, 4, 4, seed=8)
    levels = []
    matcher = partition._heavy_edge_matching_streaming

    def counted(adjacency, rng):
        levels.append(adjacency.shape[0])
        return matcher(adjacency, rng)

    monkeypatch.setattr(partition, "_heavy_edge_matching_streaming", counted)
    candidate = partition.partition_graph(graph.adjacency, 12, seed=5, method="streaming")
    assert len(levels) >= 3
    monkeypatch.setattr(
        partition, "_heavy_edge_matching_streaming", seed_heavy_edge_matching_streaming
    )
    reference = partition.partition_graph(graph.adjacency, 12, seed=5, method="streaming")
    np.testing.assert_array_equal(reference.assignment, candidate.assignment)
    assert reference.edge_cut == candidate.edge_cut
