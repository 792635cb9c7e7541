"""Tests for the faulty training loop (FaultyTrainer)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.strategies import FaReStrategy, build_strategy
from repro.hardware.endurance import PostDeploymentSchedule
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig, TrainingResult
from repro.tensor import kernels

from reference.mapping import SeedLoopMapper
from reference.trainer import ReplanEveryEpochTrainer


@pytest.fixture
def trainer_config():
    return TrainingConfig(
        epochs=2,
        learning_rate=0.02,
        hidden_features=8,
        dropout=0.0,
        num_parts=4,
        batch_clusters=2,
        seed=0,
    )


def make_hardware(tiny_config, density=0.05, ratio=(9.0, 1.0), seed=0):
    model = FaultModel(density, ratio, seed=seed) if density > 0 else None
    return HardwareEnvironment(config=tiny_config, fault_model=model, weight_fraction=0.5)


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainingConfig(num_parts=2, batch_clusters=4)


class TestFaultFreeTraining:
    def test_runs_and_reports(self, tiny_graph, trainer_config):
        trainer = FaultyTrainer(
            tiny_graph, "gcn", build_strategy("fault_free"), trainer_config, hardware=None
        )
        result = trainer.train()
        assert isinstance(result, TrainingResult)
        assert result.epochs_run == 2
        assert len(result.train_accuracy_history) == 2
        assert len(result.loss_history) == 2
        assert 0.0 <= result.final_test_accuracy <= 1.0
        assert result.fault_density == 0.0

    def test_loss_decreases(self, tiny_graph):
        config = TrainingConfig(epochs=6, hidden_features=8, dropout=0.0, num_parts=4, batch_clusters=4, seed=0)
        trainer = FaultyTrainer(tiny_graph, "gcn", build_strategy("fault_free"), config)
        result = trainer.train()
        assert result.loss_history[-1] < result.loss_history[0]

    def test_multilabel_graph(self, tiny_multilabel_graph, trainer_config):
        trainer = FaultyTrainer(
            tiny_multilabel_graph, "gcn", build_strategy("fault_free"), trainer_config
        )
        result = trainer.train()
        assert 0.0 <= result.final_test_accuracy <= 1.0

    def test_hardware_required_for_faulty_strategy(self, tiny_graph, trainer_config):
        with pytest.raises(ValueError):
            FaultyTrainer(tiny_graph, "gcn", build_strategy("fare"), trainer_config, hardware=None)


@pytest.mark.parametrize("strategy_name", ["fault_unaware", "nr", "clipping", "fare"])
class TestFaultyTraining:
    def test_strategy_runs(self, strategy_name, tiny_graph, trainer_config, tiny_config):
        hardware = make_hardware(tiny_config)
        trainer = FaultyTrainer(
            tiny_graph,
            "gcn",
            build_strategy(strategy_name),
            trainer_config,
            hardware=hardware,
        )
        result = trainer.train()
        assert result.strategy == strategy_name
        assert result.fault_density > 0
        assert result.counters["num_batches"] == 2
        assert result.counters["num_weight_crossbars"] >= 1
        assert result.counters["block_write_events"] > 0


class TestDeterminism:
    def test_same_seed_same_result(self, tiny_graph, tiny_config, trainer_config):
        def run():
            hardware = make_hardware(tiny_config, seed=3)
            trainer = FaultyTrainer(
                tiny_graph, "gcn", build_strategy("fare"), trainer_config, hardware=hardware
            )
            return trainer.train()

        a, b = run(), run()
        assert a.final_test_accuracy == b.final_test_accuracy
        np.testing.assert_allclose(a.loss_history, b.loss_history)


class TestPostDeployment:
    def test_fault_density_grows(self, tiny_graph, tiny_config, trainer_config):
        hardware = make_hardware(tiny_config, density=0.02)
        before = hardware.overall_fault_density()
        schedule = PostDeploymentSchedule(total_extra_density=0.05, num_epochs=trainer_config.epochs)
        trainer = FaultyTrainer(
            tiny_graph,
            "gcn",
            build_strategy("fare"),
            trainer_config,
            hardware=hardware,
            post_deployment=schedule,
        )
        trainer.train()
        assert hardware.overall_fault_density() > before
        # BIST re-scanned at the end of every epoch plus the initial scan.
        assert hardware.bist.scan_count == 1 + trainer_config.epochs

    def test_no_post_deployment_no_rescan(self, tiny_graph, tiny_config, trainer_config):
        hardware = make_hardware(tiny_config, density=0.02)
        trainer = FaultyTrainer(
            tiny_graph, "gcn", build_strategy("fare"), trainer_config, hardware=hardware
        )
        trainer.train()
        assert hardware.bist.scan_count == 1

    def test_engine_counters_surface_in_training_result(
        self, tiny_graph, tiny_config, trainer_config
    ):
        hardware = make_hardware(tiny_config)
        strategy = build_strategy("fare")
        # Shrink the result cache so evictions actually happen during the run
        # and the counter is proven live end-to-end, not just key-present.
        strategy.mapper.cost_engine.CACHE_SIZE = 1
        trainer = FaultyTrainer(
            tiny_graph, "gcn", strategy, trainer_config, hardware=hardware
        )
        result = trainer.train()
        assert result.counters["mapping_cache_evictions"] > 0
        assert result.counters["mapping_cache_misses"] > 0

    @staticmethod
    def _run_post_deployment(tiny_graph, tiny_config, trainer_config, strategy, replan):
        hardware = make_hardware(tiny_config, density=0.02, seed=5)
        schedule = PostDeploymentSchedule(
            total_extra_density=0.05, num_epochs=trainer_config.epochs
        )
        trainer_cls = ReplanEveryEpochTrainer if replan else FaultyTrainer
        trainer = trainer_cls(
            tiny_graph,
            "gcn",
            strategy,
            trainer_config,
            hardware=hardware,
            post_deployment=schedule,
        )
        return trainer, trainer.train()

    @staticmethod
    def _assert_same_run(ref_trainer, ref_result, trainer, result):
        assert result.loss_history == ref_result.loss_history
        assert result.train_accuracy_history == ref_result.train_accuracy_history
        assert result.test_accuracy_history == ref_result.test_accuracy_history
        assert len(trainer.plans) == len(ref_trainer.plans)
        for ref, got in zip(ref_trainer.plans, trainer.plans):
            assert ref.pruned_crossbars == got.pruned_crossbars
            assert ref.relaxed_blocks == got.relaxed_blocks
            assert len(ref.blocks) == len(got.blocks)
            for a, b in zip(ref.blocks, got.blocks):
                assert a.block_index == b.block_index
                assert a.crossbar_index == b.crossbar_index
                assert a.cost == b.cost
                assert a.sa1_mismatch == b.sa1_mismatch
                np.testing.assert_array_equal(a.row_permutation, b.row_permutation)

    def test_replan_every_epoch_matches_fresh_strategy_plans(
        self, tiny_graph, tiny_config, trainer_config
    ):
        """Trainer-level re-plan equivalence: a warm re-plan after each BIST
        re-scan must produce exactly the plans a fresh (cold) strategy
        computes on the same fault maps (same RNG stream on both paths)."""

        class FreshPlanFaRe(FaReStrategy):
            def plan_adjacency(self, *args):
                return FaReStrategy().plan_adjacency(*args)

        warm_trainer, warm_result = self._run_post_deployment(
            tiny_graph, tiny_config, trainer_config, FaReStrategy(), replan=True
        )
        cold_trainer, cold_result = self._run_post_deployment(
            tiny_graph, tiny_config, trainer_config, FreshPlanFaRe(), replan=True
        )
        self._assert_same_run(cold_trainer, cold_result, warm_trainer, warm_result)
        # The preprocessing plan and every epoch's re-plan ran on the
        # trainer's own strategy, so its engine saw each plan's pair grid.
        grid = sum(len(blocks) for blocks in warm_trainer.blocks_per_batch) * len(
            warm_trainer.adjacency_crossbar_ids
        )
        stats = warm_trainer.strategy.mapping_engine_stats()
        assert stats["mapping_pairs_total"] == (1 + trainer_config.epochs) * grid

    @pytest.mark.parametrize("replan", [False, True], ids=["refresh", "replan"])
    @pytest.mark.parametrize("method", ["greedy", "hungarian", "bsuitor"])
    def test_fare_on_seed_loop_reference_matches_engine(
        self, tiny_graph, tiny_config, trainer_config, method, replan
    ):
        """FARe whose mapper runs the seed per-pair loop trains exactly like
        the engine-backed strategy, through the Π-preserving refresh and
        through full re-plans after each BIST re-scan."""
        reference = FaReStrategy(row_method=method)
        reference.mapper = SeedLoopMapper(row_method=method)
        ref_trainer, ref_result = self._run_post_deployment(
            tiny_graph, tiny_config, trainer_config, reference, replan
        )
        trainer, result = self._run_post_deployment(
            tiny_graph, tiny_config, trainer_config, FaReStrategy(row_method=method),
            replan,
        )
        self._assert_same_run(ref_trainer, ref_result, trainer, result)
        assert result.counters["mapping_solver_pairs"] > 0


class TestEvaluation:
    def test_evaluate_splits(self, tiny_graph, tiny_config, trainer_config):
        hardware = make_hardware(tiny_config)
        trainer = FaultyTrainer(
            tiny_graph, "gcn", build_strategy("clipping"), trainer_config, hardware=hardware
        )
        trainer.train()
        for split in ("train", "val", "test"):
            assert 0.0 <= trainer.evaluate(split) <= 1.0
        with pytest.raises(ValueError):
            trainer.evaluate("bogus")

    def test_eval_mode_restored(self, tiny_graph, trainer_config):
        trainer = FaultyTrainer(tiny_graph, "gcn", build_strategy("fault_free"), trainer_config)
        trainer.evaluate("test")
        assert trainer.model.training

    def test_evaluate_before_train_reads_faulty_weights(
        self, tiny_graph, tiny_config, trainer_config
    ):
        hardware = make_hardware(tiny_config)
        trainer = FaultyTrainer(
            tiny_graph, "gcn", build_strategy("clipping"), trainer_config, hardware=hardware
        )
        trainer.evaluate("test")
        # Every mapped weight went through the crossbar read-back once ...
        assert trainer._hw_cache.stats.weight_misses == len(trainer._weight_mapper.layouts)
        # ... and the model no longer holds the trainer's transform.
        assert trainer.model.weight_transform is None


class TestRunLifetime:
    def test_finished_trainer_is_freed_by_reference_counting(
        self, tiny_graph, tiny_config, trainer_config
    ):
        """No reference cycle keeps a trainer, its hardware and caches alive."""
        hardware = make_hardware(tiny_config)
        gc.collect()
        gc.disable()
        try:
            trainer = FaultyTrainer(
                tiny_graph, "gcn", build_strategy("fare"), trainer_config, hardware=hardware
            )
            result = trainer.train()
            trainer.evaluate("test")
            alive = weakref.ref(trainer)
            del trainer
            assert alive() is None
        finally:
            gc.enable()
        assert result.epochs_run == trainer_config.epochs


class TestCounters:
    def test_each_trainer_reports_only_its_own_kernel_work(
        self, tiny_graph, tiny_config, trainer_config
    ):
        """The kernel counters are process-wide; a run reports its own delta."""
        trainers = [
            FaultyTrainer(
                tiny_graph,
                model,
                build_strategy(name),
                trainer_config,
                hardware=make_hardware(tiny_config) if name != "fault_free" else None,
            )
            for model, name in (("gcn", "fare"), ("gat", "fault_free"))
        ]
        stray = np.array([0, 1, 1])
        reported, measured = [], []
        for trainer in trainers:
            # Kernel work outside train() belongs to no run.
            kernels.segment_sum(np.ones(3), stray, 2)
            before = kernels.COUNTERS.as_dict()
            result = trainer.train()
            after = kernels.COUNTERS.as_dict()
            kernels.segment_sum(np.ones(3), stray, 2)
            reported.append(
                {k: v for k, v in result.counters.items() if k.startswith("kernel_")}
            )
            measured.append({key: after[key] - before[key] for key in after})
        assert reported == measured
        # Both runs did kernel work, and not the same work: GAT's attention
        # runs edge softmaxes, GCN's aggregation none.
        assert reported[0]["kernel_csr_matmat_calls"] > 0
        assert reported[0]["kernel_edge_softmax_calls"] == 0
        assert reported[1]["kernel_edge_softmax_calls"] > 0
