"""Tests for the pipelined-execution timing model (Fig. 7 machinery)."""

import numpy as np
import pytest

from repro.core.strategies import STRATEGY_REGISTRY, build_strategy
from repro.hardware.faults import FaultModel
from repro.graph.datasets import DATASET_REGISTRY
from repro.hardware.config import DEFAULT_CONFIG
from repro.hardware.energy import TileCostModel
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig
from repro.pipeline.timing import (
    TimingInputs,
    estimate_execution_time,
    fig7_paper_datasets,
    timing_inputs_from_spec,
)


@pytest.fixture
def inputs():
    return timing_inputs_from_spec(DATASET_REGISTRY["reddit"], epochs=100)


class TestTimingInputs:
    def test_from_spec_counts(self):
        spec = DATASET_REGISTRY["ppi"]
        inputs = timing_inputs_from_spec(spec, epochs=100)
        assert inputs.num_pipeline_units == spec.paper_partitions
        assert inputs.num_batches == spec.paper_partitions // spec.paper_batch
        assert inputs.avg_subgraph_nodes == pytest.approx(
            spec.paper_nodes / spec.paper_partitions
        )
        assert inputs.num_weight_crossbars > 0
        assert inputs.num_adjacency_crossbars > 0

    def test_from_counters(self):
        counters = {
            "num_batches": 10,
            "epochs": 5,
            "avg_batch_nodes": 100.0,
            "total_blocks": 40.0,
            "num_adjacency_crossbars": 8,
            "num_weight_crossbars": 4,
        }
        inputs = TimingInputs.from_counters(counters)
        assert inputs.num_batches == 10
        assert inputs.blocks_per_batch == 4.0


class TestExecutionTimeModel:
    def test_fault_free_has_no_overheads(self, inputs):
        breakdown = estimate_execution_time(build_strategy("fault_free"), inputs)
        assert breakdown.clipping_stage_time == 0
        assert breakdown.preprocessing_time == 0
        assert breakdown.reorder_stall_time == 0
        assert breakdown.total == breakdown.pipeline_time

    def test_clipping_adds_one_stage_per_epoch(self, inputs):
        breakdown = estimate_execution_time(build_strategy("clipping"), inputs)
        stage = breakdown.components["stage_delay_s"]
        assert breakdown.clipping_stage_time == pytest.approx(inputs.epochs * stage)

    def test_fare_overhead_is_about_one_percent(self, inputs):
        baseline = estimate_execution_time(build_strategy("fault_free"), inputs)
        fare = estimate_execution_time(build_strategy("fare"), inputs)
        overhead = fare.normalized(baseline) - 1.0
        assert 0.0 < overhead < 0.05

    def test_nr_is_several_times_slower(self, inputs):
        baseline = estimate_execution_time(build_strategy("fault_free"), inputs)
        nr = estimate_execution_time(build_strategy("nr"), inputs)
        ratio = nr.normalized(baseline)
        assert 1.5 < ratio < 6.0

    def test_ordering_matches_paper(self, inputs):
        baseline = estimate_execution_time(build_strategy("fault_free"), inputs)
        clipping = estimate_execution_time(build_strategy("clipping"), inputs).normalized(baseline)
        fare = estimate_execution_time(build_strategy("fare"), inputs).normalized(baseline)
        nr = estimate_execution_time(build_strategy("nr"), inputs).normalized(baseline)
        assert 1.0 <= clipping <= fare < nr

    def test_post_deployment_adds_bist_time(self):
        spec = DATASET_REGISTRY["reddit"]
        with_pd = timing_inputs_from_spec(spec, track_post_deployment=True)
        without_pd = timing_inputs_from_spec(spec, track_post_deployment=False)
        fare_pd = estimate_execution_time(build_strategy("fare"), with_pd)
        fare = estimate_execution_time(build_strategy("fare"), without_pd)
        assert fare_pd.bist_time > 0
        assert fare.bist_time == 0

    def test_normalized_requires_positive_baseline(self, inputs):
        breakdown = estimate_execution_time(build_strategy("fault_free"), inputs)
        zero = estimate_execution_time(build_strategy("fault_free"), inputs)
        zero.pipeline_time = 0.0
        with pytest.raises(ValueError):
            breakdown.normalized(zero)

    def test_fig7_dataset_labels(self):
        labels = set(fig7_paper_datasets())
        assert labels == {"Ogbl (SAGE)", "Reddit (GCN)", "PPI (GAT)", "Amazon2M (GCN)"}

    def test_fare_engine_stats_count_cache_hits(self):
        fare = build_strategy("fare")
        rng = np.random.default_rng(0)
        blocks = [(rng.random((8, 8)) < 0.1).astype(float) for _ in range(3)]
        fmaps = FaultModel(0.1, (1, 1), seed=1).generate(4, 8, 8)
        fare.plan_adjacency([blocks, blocks], fmaps, list(range(4)), 8)
        stats = fare.mapping_engine_stats()
        assert stats["mapping_pairs_total"] > 0
        # The second identical batch should have been answered from cache.
        assert stats["mapping_cache_hits"] > 0

    def test_non_mapping_strategies_have_no_engine_stats(self):
        for name in ("fault_free", "fault_unaware", "clipping", "nr"):
            assert build_strategy(name).mapping_engine_stats() is None

    @pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
    def test_components_hold_simulated_seconds_only(self, name, tiny_graph, tiny_config):
        """After a trained run, no host work counter lands in the breakdown."""
        strategy = build_strategy(name)
        hardware = None
        if strategy.requires_hardware:
            hardware = HardwareEnvironment(
                config=tiny_config,
                fault_model=FaultModel(0.05, (9.0, 1.0), seed=0),
                weight_fraction=0.5,
            )
        config = TrainingConfig(
            epochs=1, hidden_features=8, num_parts=4, batch_clusters=2, seed=0
        )
        result = FaultyTrainer(
            tiny_graph, "gcn", strategy, config, hardware=hardware
        ).train()
        breakdown = estimate_execution_time(
            strategy, TimingInputs.from_counters(result.counters)
        )
        expected = {"stage_delay_s"}
        if strategy.reorders_every_batch:
            expected.add("reorder_stall_per_batch_s")
        assert set(breakdown.components) == expected

    def test_cost_model_override(self, inputs):
        slow = TileCostModel(config=DEFAULT_CONFIG, read_cycles_per_mvm=160)
        fast = TileCostModel(config=DEFAULT_CONFIG, read_cycles_per_mvm=16)
        slow_time = estimate_execution_time(build_strategy("fault_free"), inputs, cost_model=slow)
        fast_time = estimate_execution_time(build_strategy("fault_free"), inputs, cost_model=fast)
        assert slow_time.total > fast_time.total
