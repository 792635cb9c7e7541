"""O(1) hardware bookkeeping per batch fetch.

* A crossbar counts whole-array writes in one integer and builds the
  per-cell ``write_counts`` when read: after any mix of ``program``,
  ``program_binary`` and ``record_simulated_writes`` they, ``total_writes``
  and ``max_cell_writes`` equal an eager per-cell count.
* A pool's :class:`~repro.hardware.crossbar.FaultClock` strictly increases
  on every ``set_fault_map``, an equal map included; splitting the pool
  gives each group its own, which reads the sum of its ``fault_epoch``.
* The read-back cache keyed on the adjacency group's clock hits and misses
  exactly where the key it replaces — the sum of the adjacency crossbars'
  ``fault_epoch`` — does (``reference.hardware.EpochSumStateCache``), a
  fault change on a weight crossbar alone included.
* ``add_self_loops`` returns the same CSR arrays as the seed ``from_coo``
  path, whether or not its one-pass insertion applies.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.strategies import build_strategy
from repro.graph.normalize import add_self_loops
from repro.graph.sparse import CSRMatrix
from repro.hardware.crossbar import Crossbar, FaultClock
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultMap, FaultModel
from repro.hardware.tile import CrossbarPool
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig

from reference.graph import seed_add_self_loops
from reference.hardware import EpochSumStateCache


# --------------------------------------------------------------------------- #
# Lazy per-cell write counts
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(8))
def test_write_counts_equal_an_eager_count(seed):
    rng = np.random.default_rng(seed)
    rows, cols = 6, 5
    crossbar = Crossbar(0, rows, cols)
    eager = np.zeros((rows, cols), dtype=np.int64)
    total = 0
    for _ in range(30):
        kind = rng.integers(3)
        if kind == 0:
            r, c = rng.integers(1, rows + 1), rng.integers(1, cols + 1)
            r0, c0 = rng.integers(0, rows - r + 1), rng.integers(0, cols - c + 1)
            crossbar.program(rng.integers(0, 4, size=(r, c)), r0, c0)
            eager[r0 : r0 + r, c0 : c0 + c] += 1
            total += 1
        elif kind == 1:
            crossbar.program_binary(rng.random((rows, cols)) < 0.3)
            eager += 1
            total += 1
        else:
            count = int(rng.integers(0, 4))
            crossbar.record_simulated_writes(count)
            eager += count
            total += count
        assert np.array_equal(crossbar.write_counts, eager)
        assert crossbar.total_writes == total
        assert crossbar.max_cell_writes == eager.max()


def test_write_counts_is_a_fresh_array():
    crossbar = Crossbar(0, 4, 4)
    crossbar.record_simulated_writes(2)
    counts = crossbar.write_counts
    counts += 5
    assert np.all(crossbar.write_counts == 2)
    assert crossbar.max_cell_writes == 2


# --------------------------------------------------------------------------- #
# The pool's fault clock
# --------------------------------------------------------------------------- #
def test_pool_clock_advances_on_every_fault_map(tiny_config):
    pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.05, seed=1))
    clock = pool[0].fault_clock
    assert all(x.fault_clock is clock for x in pool)
    ticks = [clock.ticks]
    assert ticks[0] == len(pool)  # the pre-deployment maps
    crossbar = pool[3]
    crossbar.set_fault_map(crossbar.fault_map)  # an equal map still ticks
    ticks.append(clock.ticks)
    crossbar.set_fault_map(FaultMap.empty(crossbar.rows, crossbar.cols))
    ticks.append(clock.ticks)
    pool.inject_post_deployment(0.0)
    ticks.append(clock.ticks)
    assert ticks == [len(pool), len(pool) + 1, len(pool) + 2, 2 * len(pool) + 2]


def test_split_gives_each_group_its_own_clock(tiny_config):
    pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.05, seed=1))
    pool[1].set_fault_map(pool[1].fault_map)
    groups = pool.split(5)
    weights, adjacency = groups

    def clock_reads_epoch_sum():
        return all(
            all(x.fault_clock is group[0].fault_clock for x in group)
            and group[0].fault_clock.ticks == sum(x.fault_epoch for x in group)
            for group in groups
        )

    assert weights[0].fault_clock is not adjacency[0].fault_clock
    assert clock_reads_epoch_sum()
    ticks = adjacency[0].fault_clock.ticks
    weights[2].set_fault_map(weights[2].fault_map)
    assert adjacency[0].fault_clock.ticks == ticks
    adjacency[0].set_fault_map(adjacency[0].fault_map)
    assert adjacency[0].fault_clock.ticks == ticks + 1
    pool.inject_post_deployment(0.0)
    assert clock_reads_epoch_sum()


def test_standalone_crossbars_keep_private_clocks():
    a, b = Crossbar(0, 4, 4), Crossbar(1, 4, 4)
    assert a.fault_clock is not b.fault_clock
    shared = FaultClock()
    c = Crossbar(2, 4, 4, fault_clock=shared)
    c.set_fault_map(FaultMap.empty(4, 4))
    a.set_fault_map(FaultMap.empty(4, 4))
    assert (shared.ticks, a.fault_clock.ticks, b.fault_clock.ticks) == (1, 1, 0)


@pytest.mark.parametrize("train_mode", ["per_batch", "fused"])
@pytest.mark.parametrize("post", [False, True])
def test_clock_keyed_cache_misses_where_the_epoch_sum_would(
    tiny_graph, tiny_config, train_mode, post
):
    config = TrainingConfig(
        epochs=3, hidden_features=8, dropout=0.1, num_parts=4, batch_clusters=2, seed=0
    )

    def run(reference):
        hardware = HardwareEnvironment(
            config=tiny_config,
            fault_model=FaultModel(0.06, (4.0, 1.0), seed=21),
            weight_fraction=0.5,
        )
        schedule = (
            PostDeploymentSchedule(total_extra_density=0.04, num_epochs=config.epochs)
            if post
            else None
        )

        def build():
            return FaultyTrainer(
                tiny_graph,
                "gcn",
                build_strategy("fare"),
                config,
                hardware=hardware,
                post_deployment=schedule,
                train_mode=train_mode,
            )

        if not reference:
            return build()
        with mock.patch("repro.pipeline.trainer.HardwareStateCache", EpochSumStateCache):
            return build()

    results = []
    for reference in (False, True):
        trainer = run(reference)
        result = trainer.train()
        misses = trainer._hw_cache.stats.adjacency_misses
        # A fault change on a weight crossbar alone keeps the adjacency
        # read-backs cached.
        crossbar = trainer.hardware.weight_crossbars[0]
        crossbar.set_fault_map(crossbar.fault_map)
        trainer.evaluate("test")
        assert trainer._hw_cache.stats.adjacency_misses == misses
        results.append((trainer._hw_cache.stats.as_dict(), result))
    (stats, result), (ref_stats, ref_result) = results
    assert stats == ref_stats
    assert stats["hw_adjacency_cache_misses"] > 0
    assert result.loss_history == ref_result.loss_history
    assert result.counters == ref_result.counters


# --------------------------------------------------------------------------- #
# add_self_loops
# --------------------------------------------------------------------------- #
def _canonical(rng, n, density=0.3, loops=0.0):
    dense = (rng.random((n, n)) < density).astype(float) * rng.choice([1.0, 2.5], (n, n))
    np.fill_diagonal(dense, (rng.random(n) < loops).astype(float))
    return CSRMatrix.from_dense(dense)


def _inputs():
    rng = np.random.default_rng(11)
    canonical = _canonical(rng, 9)
    rows, cols, vals = canonical.coo()
    bounds = zip(canonical.indptr[:-1], canonical.indptr[1:])
    unsorted = CSRMatrix(
        canonical.indptr,
        np.concatenate([cols[start:stop][::-1] for start, stop in bounds]),
        vals,
        canonical.shape,
    )
    duplicate = CSRMatrix.from_coo(
        np.concatenate((rows, rows[:4])),
        np.concatenate((cols, cols[:4])),
        np.concatenate((vals, vals[:4])),
        canonical.shape,
        sum_duplicates=False,
    )
    explicit_zero = CSRMatrix(
        np.array([0, 2, 3, 3, 5]),
        np.array([1, 2, 1, 0, 3]),
        np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
        (4, 4),
    )
    return {
        "canonical": canonical,
        "some_loops": _canonical(rng, 12, loops=0.5),
        "full_diagonal": _canonical(rng, 7, loops=1.0),
        "unsorted": unsorted,
        "duplicate": duplicate,
        "explicit_zero": explicit_zero,
        "empty_rows": CSRMatrix.zeros((5, 5)),
        "no_nodes": CSRMatrix.zeros((0, 0)),
    }


@pytest.mark.parametrize("kind", list(_inputs()))
def test_add_self_loops_matches_the_seed_path(kind):
    adjacency = _inputs()[kind]
    mine, seed = add_self_loops(adjacency), seed_add_self_loops(adjacency)
    assert mine.shape == seed.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(mine, field), getattr(seed, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    if kind == "full_diagonal":
        assert mine is adjacency
