"""The fault-unaware plan counted over edge coordinates.

:func:`repro.core.mapping.sequential_plans` (behind ``sequential_mapping``
and ``Strategy.plan_adjacency``) costs each block's identity placement from
the block's stored edges.  It must return exactly the :class:`BatchMapping`
of the seed per-block loop (:func:`reference.mapping.seed_sequential_mapping`),
whether the blocks arrive as lazy ``AdjacencyBlocks`` views of a batch CSR or
as dense lists, with duplicate coordinates, ``data <= 0`` entries, ragged
zero-padded edge blocks, more blocks than crossbars and fault-free maps.
"""

import numpy as np
import pytest

from repro.core.mapping import sequential_mapping, sequential_plans
from repro.core.strategies import build_strategy
from repro.graph.sparse import CSRMatrix
from repro.hardware.faults import FaultMap
from repro.pipeline.mapping_engine import decompose_adjacency

from reference.hardware import dense_decompose_adjacency
from reference.mapping import seed_sequential_mapping

WEIGHTS = [1.0, 4.0, 7.5]


def messy_csr(rng, n, m, nnz):
    """A CSR with unsorted columns, duplicate coordinates and ``data <= 0``."""
    rows = np.sort(rng.integers(0, n, nnz))
    cols = rng.integers(0, m, nnz)
    # Re-store some entries' predecessor coordinates so duplicates are
    # common (rows stay sorted).
    dup = np.flatnonzero(rng.random(nnz) < 0.2)
    previous = np.maximum(dup - 1, 0)
    rows[dup], cols[dup] = rows[previous], cols[previous]
    data = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], nnz)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return CSRMatrix(indptr, cols, data, (n, m))


def random_maps(rng, count, shape, fault_free_every=3):
    maps = []
    for j in range(count):
        if j % fault_free_every == 0:
            maps.append(FaultMap.empty(*shape))
            continue
        density = rng.uniform(0.02, 0.4)
        u = rng.random(shape)
        sa0 = u < density * rng.uniform(0.2, 0.9)
        maps.append(FaultMap(sa0, (u < density) & ~sa0))
    return maps


def assert_plans_identical(reference, candidate):
    assert reference.pruned_crossbars == candidate.pruned_crossbars
    assert reference.relaxed_blocks == candidate.relaxed_blocks
    assert len(reference.blocks) == len(candidate.blocks)
    for ref, got in zip(reference.blocks, candidate.blocks):
        assert ref.block_index == got.block_index
        assert ref.crossbar_index == got.crossbar_index
        assert type(ref.cost) is type(got.cost) and ref.cost == got.cost
        assert type(ref.sa1_mismatch) is type(got.sa1_mismatch)
        assert ref.sa1_mismatch == got.sa1_mismatch
        assert ref.row_permutation.dtype == got.row_permutation.dtype
        np.testing.assert_array_equal(ref.row_permutation, got.row_permutation)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sa1_weight", WEIGHTS)
def test_views_and_dense_lists_match_the_seed_loop(seed, sa1_weight):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(3, 9)), int(rng.integers(3, 9))
    # Ragged: neither side is a multiple of the block shape.
    n = int(rng.integers(2 * rows + 1, 5 * rows))
    m = int(rng.integers(cols + 1, 4 * cols))
    csr = messy_csr(rng, n, m, nnz=int(n * m * rng.uniform(0.05, 0.5)))
    view, grid = decompose_adjacency(csr, rows, cols)
    dense, dense_grid = dense_decompose_adjacency(csr, rows, cols)
    assert grid == dense_grid
    # Fewer crossbars than blocks, so crossbars are reused round-robin.
    num_crossbars = max(1, len(view) // 3)
    maps = random_maps(rng, num_crossbars, (rows, cols))
    reference = seed_sequential_mapping(
        len(dense), rows, num_crossbars, blocks=dense, fault_maps=maps,
        sa1_weight=sa1_weight,
    )
    assert reference.total_cost > 0
    # The same edges as raw values: positive where an edge is stored.
    raw = [
        np.where(
            block > 0,
            rng.choice([0.5, 1.0, 2.0], block.shape),
            rng.choice([-1.0, -0.0, 0.0], block.shape),
        )
        for block in dense
    ]
    for blocks in (view, dense, raw, [view[k] for k in range(len(view))]):
        candidate = sequential_mapping(
            len(blocks), rows, num_crossbars, blocks=blocks, fault_maps=maps,
            sa1_weight=sa1_weight,
        )
        assert_plans_identical(reference, candidate)


@pytest.mark.parametrize("sa1_weight", WEIGHTS)
def test_many_batches_with_physical_ids(sa1_weight):
    rng = np.random.default_rng(11)
    shape = (6, 5)
    maps = random_maps(rng, 4, shape)
    ids = [17, 3, 40, 8]
    batches = []
    for _ in range(5):
        n = int(rng.integers(1, 30))
        batches.append(decompose_adjacency(messy_csr(rng, n, n, 3 * n), *shape)[0])
    plans = sequential_plans(batches, maps, ids, shape[0], sa1_weight)
    assert len(plans) == len(batches)
    for blocks, plan in zip(batches, plans):
        reference = seed_sequential_mapping(
            len(blocks), shape[0], len(ids), blocks=blocks[:], fault_maps=maps,
            sa1_weight=sa1_weight,
        )
        for mapping in reference.blocks:
            mapping.crossbar_index = ids[mapping.crossbar_index]
        assert_plans_identical(reference, plan)


def test_strategy_plan_adjacency_is_the_sequential_plan():
    rng = np.random.default_rng(5)
    shape = (8, 8)
    maps = random_maps(rng, 3, shape)
    ids = [4, 5, 6]
    batches = [
        decompose_adjacency(messy_csr(rng, 20, 20, 90), *shape)[0] for _ in range(3)
    ]
    for name in ("fault_unaware", "clipping"):
        plans = build_strategy(name).plan_adjacency(batches, maps, ids, shape[0])
        expected = sequential_plans(batches, maps, ids, shape[0])
        for reference, candidate in zip(expected, plans):
            assert_plans_identical(reference, candidate)


def test_each_block_owns_its_permutation():
    plan = sequential_mapping(3, 4, 2)
    plan.blocks[0].row_permutation[0] = 3
    np.testing.assert_array_equal(plan.blocks[1].row_permutation, np.arange(4))


class TestShapeMismatchRaises:
    def test_dense_block(self):
        maps = [FaultMap.empty(4, 4)]
        with pytest.raises(ValueError, match="does not match fault map"):
            sequential_mapping(1, 4, 1, blocks=[np.zeros((4, 5))], fault_maps=maps)

    def test_view(self):
        view, _ = decompose_adjacency(CSRMatrix.identity(6), 3, 3)
        maps = [FaultMap.empty(4, 4)]
        with pytest.raises(ValueError, match="does not match fault map"):
            sequential_mapping(len(view), 4, 1, blocks=view, fault_maps=maps)

    def test_fault_maps_of_two_shapes(self):
        maps = [FaultMap.empty(4, 4), FaultMap.empty(4, 3)]
        with pytest.raises(ValueError, match="one shape"):
            sequential_plans([[np.zeros((4, 4))]], maps, [0, 1], 4)

    def test_crossbar_ids_and_maps_disagree(self):
        with pytest.raises(ValueError, match="does not match"):
            sequential_plans([[np.zeros((4, 4))]], [FaultMap.empty(4, 4)], [0, 1], 4)
