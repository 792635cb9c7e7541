"""Tests for the epoch-cached hardware read-back (core/hw_state.py).

Three equivalence guarantees are enforced against the seed paths in
:mod:`reference.hardware`:

* the batched adjacency read-back is bit-identical to the seed per-block
  program/read loop — including the crossbars' stored contents and endurance
  counters;
* the fused quantise→fault→dequantise weight path is bit-identical to the
  seed bit-sliced pipeline;
* a fully cached training run (adjacency + weight caches, batched/fused
  paths) reproduces the seed per-batch recomputation bit-for-bit across
  post-deployment fault injection, BIST re-scans and plan refreshes — with
  identical write-event and endurance accounting.

Plus cache bookkeeping: invalidation on fault/plan changes, hit/miss
counters surfacing through ``Strategy.mapping_engine_stats()`` into the
trainer counters.
"""

import numpy as np
import pytest

from repro.core.strategies import FaReStrategy, build_strategy
from repro.graph.sparse import CSRMatrix
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultModel
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
# Batched adjacency read-back ≡ seed per-block loop
# --------------------------------------------------------------------------- #
class TestBatchedReadBackEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_including_hardware_state(self, tiny_config, seed):
        """Same read-back, same stored contents, same endurance counters."""
        env_loop = make_environment(tiny_config, seed=seed + 50)
        env_batched = make_environment(tiny_config, seed=seed + 50)
        loop = LoopAdjacencyMapper(env_loop.adjacency_crossbars, tiny_config)
        batched = AdjacencyCrossbarMapper(env_batched.adjacency_crossbars, tiny_config)

        adjacency = random_adjacency(44, seed=seed)
        blocks_l, grid_l = loop.decompose(adjacency)
        blocks_b, grid_b = batched.decompose(adjacency)
        plan_l = fare_plan(loop, blocks_l)
        plan_b = fare_plan(batched, blocks_b)

        out_loop = loop.apply_mapping(adjacency, plan_l, blocks=blocks_l, grid=grid_l)
        out_batched = batched.apply_mapping(
            adjacency, plan_b, blocks=blocks_b, grid=grid_b
        )
        np.testing.assert_array_equal(out_loop.to_dense(), out_batched.to_dense())
        assert loop.block_write_events == batched.block_write_events
        for xl, xb in zip(loop.crossbars, batched.crossbars):
            np.testing.assert_array_equal(xl.read_ideal(), xb.read_ideal())
            np.testing.assert_array_equal(xl.write_counts, xb.write_counts)
            assert xl.total_writes == xb.total_writes

    def test_fault_free_batched_preserves_adjacency(self, tiny_config):
        env = make_environment(tiny_config, density=0.0)
        mapper = AdjacencyCrossbarMapper(env.adjacency_crossbars, tiny_config)
        adjacency = random_adjacency(30, seed=4)
        blocks, grid = mapper.decompose(adjacency)
        plan = fare_plan(mapper, blocks)
        out = mapper.apply_mapping(adjacency, plan, blocks=blocks, grid=grid)
        np.testing.assert_array_equal(out.to_dense(), adjacency.to_dense())

    def test_batched_rejects_bad_permutation(self, tiny_config):
        env = make_environment(tiny_config)
        mapper = AdjacencyCrossbarMapper(env.adjacency_crossbars, tiny_config)
        adjacency = random_adjacency(16, seed=5)
        blocks, grid = mapper.decompose(adjacency)
        plan = fare_plan(mapper, blocks)
        plan.blocks[0].row_permutation = np.zeros(tiny_config.crossbar_rows, dtype=int)
        with pytest.raises(ValueError):
            mapper.apply_mapping(adjacency, plan, blocks=blocks, grid=grid)


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
        # Counters surface through mapping_engine_stats() into the trainer
        # counters, next to the cost engine's counters.
        engine_stats = trainer.strategy.mapping_engine_stats()
        assert engine_stats["hw_adjacency_cache_hits"] == float(stats.adjacency_hits)
        assert "mapping_pairs_total" in engine_stats
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
