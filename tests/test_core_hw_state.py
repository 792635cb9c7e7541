"""Tests for the epoch-cached hardware read-back (core/hw_state.py).

Three equivalence guarantees are enforced against the seed paths in
:mod:`reference.hardware`:

* the sparse adjacency read-back is bit-identical to the seed per-block
  program/read loop — including the crossbars' stored contents and endurance
  counters — on fuzzed batches (ragged and non-square geometries, every
  SA0:SA1 mix, time-multiplexed crossbars, unsorted/duplicate/explicit-zero
  CSR entries), and malformed plans are rejected;
* the fused quantise→fault→dequantise weight path is bit-identical to the
  seed bit-sliced pipeline;
* a fully cached training run (adjacency + weight caches, batched/fused
  paths) reproduces the seed per-batch recomputation bit-for-bit across
  post-deployment fault injection, BIST re-scans and plan refreshes — with
  identical write-event and endurance accounting.

Plus cache bookkeeping: invalidation on fault/plan changes, hit/miss
counters surfacing in ``TrainingResult.counters``.
"""

import numpy as np
import pytest

from repro.core.mapping import BatchMapping, BlockMapping
from repro.core.strategies import FaReStrategy, FaultUnawareStrategy, build_strategy
from repro.graph.sparse import CSRMatrix
from repro.hardware.config import ReRAMConfig
from repro.hardware.crossbar import Crossbar
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultMap, FaultModel
from repro.nn.factory import build_model
from repro.pipeline.mapping_engine import (
    AdjacencyCrossbarMapper,
    HardwareEnvironment,
    WeightCrossbarMapper,
)
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig

from reference.hardware import (
    BitSlicedWeightMapper,
    LoopAdjacencyMapper,
    uncached_hardware,
)


def make_environment(tiny_config, density=0.08, ratio=(4.0, 1.0), seed=11):
    model = FaultModel(density, ratio, seed=seed) if density > 0 else None
    return HardwareEnvironment(config=tiny_config, fault_model=model, weight_fraction=0.5)


def random_adjacency(n, seed=0, density=0.12):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    return CSRMatrix.from_dense(dense)


def fare_plan(mapper, blocks):
    return FaReStrategy(row_method="greedy").plan_adjacency(
        [blocks], mapper.fault_maps(), mapper.crossbar_ids, mapper.config.crossbar_rows
    )[0]


# --------------------------------------------------------------------------- #
# Sparse adjacency read-back ≡ seed per-block loop
# --------------------------------------------------------------------------- #
#: (crossbar rows, crossbar cols): square, non-square both ways, odd sizes.
GEOMETRIES = [(8, 8), (8, 12), (12, 8), (16, 16), (5, 7)]
#: SA0:SA1 ratios; ``None`` is fault-free hardware.
RATIOS = [(9.0, 1.0), (1.0, 1.0), (0.0, 1.0), None]
PLAN_KINDS = ["fare", "fault_unaware", "random"]


def fuzz_adjacency(rng, n, m):
    """A CSR with unsorted columns, self-loops, explicit zeros and duplicates."""
    counts = rng.integers(0, max(2, m // 3), size=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = rng.integers(0, m, size=int(indptr[-1]))
    rows = np.repeat(np.arange(n), counts)
    loops = (rng.random(indices.size) < 0.1) & (rows < m)
    indices[loops] = rows[loops]
    data = rng.choice([1.0, 1.0, 1.0, 2.0, 0.0, -1.0], size=indices.size)
    return CSRMatrix(indptr, indices, data, (n, m))


def fuzz_plan(kind, blocks, crossbars, rows, rng):
    fault_maps = [x.fault_map for x in crossbars]
    ids = [x.crossbar_id for x in crossbars]
    if kind == "random":
        # Shuffled order, any crossbar (repeats included), any row order.
        return BatchMapping(
            blocks=[
                BlockMapping(int(b), int(rng.choice(ids)), rng.permutation(rows), 0.0)
                for b in rng.permutation(len(blocks))
            ]
        )
    strategy = (
        FaReStrategy(row_method="greedy") if kind == "fare" else FaultUnawareStrategy()
    )
    return strategy.plan_adjacency([blocks], fault_maps, ids, rows)[0]


def crossbar_pair(rng, num_crossbars, rows, cols, ratio):
    """Two crossbar sets with identical faults: one per read-back path."""
    if ratio is None:
        maps = [FaultMap.empty(rows, cols) for _ in range(num_crossbars)]
    else:
        model = FaultModel(float(rng.uniform(0.05, 0.3)), ratio, seed=rng)
        maps = model.generate(num_crossbars, rows, cols)
    # Ids offset from list positions, so an id/position mix-up shows.
    return [
        [Crossbar(100 + i, rows, cols, fault_map=fmap) for i, fmap in enumerate(maps)]
        for _ in range(2)
    ]


class TestBatchedReadBackEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_bit_identical_including_hardware_state(self, seed):
        """Same faulty CSR, stored contents, endurance and write counters as
        the seed loop, over two consecutive batches on the same crossbars."""
        rng = np.random.default_rng(seed)
        rows, cols = GEOMETRIES[seed % len(GEOMETRIES)]
        ratio = RATIOS[seed % len(RATIOS)]
        kind = PLAN_KINDS[(seed // len(RATIOS)) % len(PLAN_KINDS)]
        config = ReRAMConfig(
            crossbar_rows=rows, crossbar_cols=cols, crossbars_per_tile=8, num_tiles=1
        )
        crossbars, loop_crossbars = crossbar_pair(
            rng, int(rng.integers(2, 7)), rows, cols, ratio
        )
        mapper = AdjacencyCrossbarMapper(crossbars, config)
        loop = LoopAdjacencyMapper(loop_crossbars, config)
        for _ in range(2):
            # Ragged sizes (up to 5 × 5 blocks); every fifth batch non-square.
            n = int(rng.integers(1, 5 * rows))
            m = int(rng.integers(1, 5 * cols)) if seed % 5 == 0 else n
            adjacency = fuzz_adjacency(rng, n, m)
            blocks, _ = loop.decompose(adjacency)
            plan = fuzz_plan(kind, blocks, loop.crossbars, rows, rng)

            out = mapper.apply_mapping(adjacency, plan)
            expected = loop.apply_mapping(adjacency, plan)
            np.testing.assert_array_equal(out.indptr, expected.indptr)
            np.testing.assert_array_equal(out.indices, expected.indices)
            np.testing.assert_array_equal(out.data, expected.data)
            assert out.shape == expected.shape
            assert mapper.block_write_events == loop.block_write_events
            for xs, xl in zip(mapper.crossbars, loop.crossbars):
                np.testing.assert_array_equal(xs.read_ideal(), xl.read_ideal())
                np.testing.assert_array_equal(xs.write_counts, xl.write_counts)
                assert xs.total_writes == xl.total_writes

    @pytest.mark.parametrize("defect", ["duplicate", "out_of_range"])
    def test_rejects_malformed_plan(self, defect):
        """A plan must place blocks 0..B-1 exactly once each; a rejected plan
        leaves the hardware untouched."""
        config = ReRAMConfig(
            crossbar_rows=8, crossbar_cols=8, crossbars_per_tile=8, num_tiles=1
        )
        crossbars = [Crossbar(i, 8, 8) for i in range(8)]
        mapper = AdjacencyCrossbarMapper(crossbars, config)
        adjacency = random_adjacency(20, seed=7, density=0.3)
        blocks, _ = mapper.decompose(adjacency)
        plan = fuzz_plan("fault_unaware", blocks, crossbars, 8, None)
        # Same entry count either way; a short plan is
        # test_pipeline_mapping_engine's test_mapping_block_count_mismatch.
        if defect == "duplicate":
            # One block listed twice, another not at all.
            plan.blocks[1].block_index = plan.blocks[0].block_index
        else:
            plan.blocks[-1].block_index = len(blocks)
        with pytest.raises(ValueError, match="exactly once"):
            mapper.apply_mapping(adjacency, plan)
        assert mapper.block_write_events == 0
        assert all(x.total_writes == 0 for x in crossbars)

    def test_fault_free_batched_preserves_adjacency(self, tiny_config):
        env = make_environment(tiny_config, density=0.0)
        mapper = AdjacencyCrossbarMapper(env.adjacency_crossbars, tiny_config)
        adjacency = random_adjacency(30, seed=4)
        blocks, _ = mapper.decompose(adjacency)
        plan = fare_plan(mapper, blocks)
        out = mapper.apply_mapping(adjacency, plan)
        np.testing.assert_array_equal(out.to_dense(), adjacency.to_dense())

    def test_batched_rejects_bad_permutation(self, tiny_config):
        env = make_environment(tiny_config)
        mapper = AdjacencyCrossbarMapper(env.adjacency_crossbars, tiny_config)
        adjacency = random_adjacency(16, seed=5)
        blocks, _ = mapper.decompose(adjacency)
        plan = fare_plan(mapper, blocks)
        plan.blocks[0].row_permutation = np.zeros(tiny_config.crossbar_rows, dtype=int)
        with pytest.raises(ValueError):
            mapper.apply_mapping(adjacency, plan)


# --------------------------------------------------------------------------- #
# Fused weight pipeline ≡ seed bit-sliced pipeline
# --------------------------------------------------------------------------- #
class TestFusedWeightEquivalence:
    @staticmethod
    def _mappers(env, model):
        """The fused mapper and the bit-sliced reference on the same crossbars."""
        return (
            WeightCrossbarMapper(model, env.weight_crossbars, env.fmt, env.config),
            BitSlicedWeightMapper(model, env.weight_crossbars, env.fmt, env.config),
        )

    @pytest.mark.parametrize("use_permutation", [False, True])
    def test_bit_identical(self, tiny_config, use_permutation):
        env = make_environment(tiny_config, density=0.1, seed=3)
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper, seed_mapper = self._mappers(env, model)
        rng = np.random.default_rng(7)
        for name in mapper.layouts:
            rows, cols = mapper.layout(name).shape
            values = rng.normal(scale=2.0, size=(rows, cols))
            perm = rng.permutation(rows) if use_permutation else None
            fused = mapper.effective_weights(
                name, values, row_permutation=perm, count_write=False
            )
            seed = seed_mapper.effective_weights(
                name, values, row_permutation=perm, count_write=False
            )
            np.testing.assert_array_equal(fused, seed)

    def test_bit_identical_after_fault_refresh(self, tiny_config):
        env = make_environment(tiny_config, density=0.05, seed=9)
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper, seed_mapper = self._mappers(env, model)
        before = mapper.fault_version
        env.inject_post_deployment(0.08)
        mapper.refresh_fault_masks()
        seed_mapper.refresh_fault_masks()
        assert mapper.fault_version == before + 1
        rng = np.random.default_rng(8)
        for name in mapper.layouts:
            values = rng.normal(scale=3.0, size=mapper.layout(name).shape)
            np.testing.assert_array_equal(
                mapper.effective_weights(name, values, count_write=False),
                seed_mapper.effective_weights(name, values, count_write=False),
            )

    def test_saturating_values_identical(self, tiny_config):
        """Out-of-range values saturate the same way on both paths."""
        env = make_environment(tiny_config, density=0.1, seed=2)
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper, seed_mapper = self._mappers(env, model)
        name = next(iter(mapper.layouts))
        shape = mapper.layout(name).shape
        values = np.linspace(-50.0, 50.0, num=shape[0] * shape[1]).reshape(shape)
        np.testing.assert_array_equal(
            mapper.effective_weights(name, values, count_write=False),
            seed_mapper.effective_weights(name, values, count_write=False),
        )


# --------------------------------------------------------------------------- #
# Full-trainer equivalence across fault refresh / plan refresh cycles
# --------------------------------------------------------------------------- #
class TestTrainerEquivalence:
    @staticmethod
    def _train(tiny_graph, tiny_config, strategy_name, cached, with_post=True):
        config = TrainingConfig(
            epochs=3,
            learning_rate=0.02,
            hidden_features=8,
            dropout=0.0,
            num_parts=4,
            batch_clusters=2,
            seed=0,
        )
        hardware = make_environment(tiny_config, density=0.06, seed=21)
        post = (
            PostDeploymentSchedule(total_extra_density=0.04, num_epochs=config.epochs)
            if with_post
            else None
        )

        def build():
            return FaultyTrainer(
                tiny_graph,
                "gcn",
                build_strategy(strategy_name),
                config,
                hardware=hardware,
                post_deployment=post,
            )

        if cached:
            trainer = build()
        else:
            with uncached_hardware():
                trainer = build()
            assert isinstance(trainer._adjacency_mapper, LoopAdjacencyMapper)
            assert isinstance(trainer._weight_mapper, BitSlicedWeightMapper)
        result = trainer.train()
        return trainer, result

    @pytest.mark.parametrize("strategy_name", ["fare", "nr", "clipping"])
    def test_cached_run_is_bit_identical_to_seed_run(
        self, tiny_graph, tiny_config, strategy_name
    ):
        """Covers post-deployment injection, BIST re-scans and plan refreshes:
        every epoch ends with new faults, a re-scan and refresh_adjacency, so
        the caches must invalidate at exactly the right points to stay
        bit-identical."""
        trainer_seed, result_seed = self._train(
            tiny_graph, tiny_config, strategy_name, cached=False
        )
        trainer_cached, result_cached = self._train(
            tiny_graph, tiny_config, strategy_name, cached=True
        )
        np.testing.assert_array_equal(result_seed.loss_history, result_cached.loss_history)
        np.testing.assert_array_equal(
            result_seed.train_accuracy_history, result_cached.train_accuracy_history
        )
        np.testing.assert_array_equal(
            result_seed.test_accuracy_history, result_cached.test_accuracy_history
        )
        # Simulated-hardware accounting must be unchanged by caching.
        assert (
            result_seed.counters["weight_write_events"]
            == result_cached.counters["weight_write_events"]
        )
        assert (
            result_seed.counters["block_write_events"]
            == result_cached.counters["block_write_events"]
        )
        for xs, xc in zip(
            trainer_seed._adjacency_mapper.crossbars,
            trainer_cached._adjacency_mapper.crossbars,
        ):
            np.testing.assert_array_equal(xs.write_counts, xc.write_counts)
            assert xs.total_writes == xc.total_writes

    def test_cached_run_identical_without_post_deployment(
        self, tiny_graph, tiny_config
    ):
        _, result_seed = self._train(
            tiny_graph, tiny_config, "fare", cached=False, with_post=False
        )
        _, result_cached = self._train(
            tiny_graph, tiny_config, "fare", cached=True, with_post=False
        )
        np.testing.assert_array_equal(result_seed.loss_history, result_cached.loss_history)
        np.testing.assert_array_equal(
            result_seed.test_accuracy_history, result_cached.test_accuracy_history
        )


# --------------------------------------------------------------------------- #
# Cache invalidation and counter surfacing
# --------------------------------------------------------------------------- #
class TestCacheBookkeeping:
    def test_steady_state_reuses_adjacency(self, tiny_graph, tiny_config):
        """Without fault/plan changes only the first epoch misses."""
        config = TrainingConfig(
            epochs=4, hidden_features=8, dropout=0.0, num_parts=4, batch_clusters=2, seed=0
        )
        trainer = FaultyTrainer(
            tiny_graph,
            "gcn",
            build_strategy("fare"),
            config,
            hardware=make_environment(tiny_config, seed=33),
        )
        result = trainer.train()
        stats = trainer._hw_cache.stats
        num_batches = int(result.counters["num_batches"])
        assert stats.adjacency_misses == num_batches
        assert stats.adjacency_hits > 0
        assert stats.adjacency_invalidations == 0
        assert stats.weight_hits > 0
        # The trainer reports its cache's counters next to the cost engine's.
        assert "mapping_pairs_total" in result.counters
        assert result.counters["hw_adjacency_cache_hits"] == float(stats.adjacency_hits)
        assert result.counters["hw_weight_cache_misses"] == float(stats.weight_misses)

    def test_post_deployment_invalidates_every_epoch(self, tiny_graph, tiny_config):
        config = TrainingConfig(
            epochs=3, hidden_features=8, dropout=0.0, num_parts=4, batch_clusters=2, seed=0
        )
        trainer = FaultyTrainer(
            tiny_graph,
            "gcn",
            build_strategy("fare"),
            config,
            hardware=make_environment(tiny_config, seed=34),
            post_deployment=PostDeploymentSchedule(
                total_extra_density=0.03, num_epochs=config.epochs
            ),
        )
        trainer.train()
        stats = trainer._hw_cache.stats
        num_batches = len(trainer.batches)
        assert stats.adjacency_invalidations == config.epochs
        # Each epoch re-derives every batch at least once (training pass after
        # the previous epoch's invalidation, plus the first post-refresh eval).
        assert stats.adjacency_misses >= config.epochs * num_batches
        assert stats.weight_misses > 0

    def test_weight_cache_keys_on_param_and_fault_version(self, tiny_graph, tiny_config):
        config = TrainingConfig(
            epochs=1, hidden_features=8, dropout=0.0, num_parts=4, batch_clusters=2, seed=0
        )
        trainer = FaultyTrainer(
            tiny_graph,
            "gcn",
            build_strategy("clipping"),
            config,
            hardware=make_environment(tiny_config, seed=35),
        )
        trainer.train()
        cache = trainer._hw_cache
        name = next(iter(trainer._weight_mapper.layouts))
        values = dict(trainer.model.named_parameters())
        calls = []

        def compute():
            calls.append(1)
            return np.zeros((1, 1))

        key = (trainer.optimizer.param_version, trainer._weight_mapper.fault_version)
        cache.effective_weights(name, key, compute)
        assert len(calls) == 0  # entry from the post-training eval is fresh → hit
        trainer.optimizer.param_version += 1
        key2 = (trainer.optimizer.param_version, trainer._weight_mapper.fault_version)
        cache.effective_weights(name, key2, compute)
        assert len(calls) == 1  # version bump → miss
        cache.effective_weights(name, key2, compute)
        assert len(calls) == 1  # same key → hit
        trainer._weight_mapper.refresh_fault_masks()
        key3 = (trainer.optimizer.param_version, trainer._weight_mapper.fault_version)
        assert key3 != key2
        cache.effective_weights(name, key3, compute)
        assert len(calls) == 2  # fault refresh → miss
        assert values  # silence linters: parameters fetched for completeness

    def test_eval_counts_no_weight_writes(self, tiny_graph, tiny_config):
        """Satellite: evaluate() must not inflate weight_write_events."""
        config = TrainingConfig(
            epochs=1, hidden_features=8, dropout=0.0, num_parts=4, batch_clusters=2, seed=0
        )
        trainer = FaultyTrainer(
            tiny_graph,
            "gcn",
            build_strategy("clipping"),
            config,
            hardware=make_environment(tiny_config, seed=36),
        )
        trainer.train()
        after_train = trainer._weight_mapper.weight_write_events
        trainer.evaluate("test")
        trainer.evaluate("train")
        assert trainer._weight_mapper.weight_write_events == after_train
