"""Ablation — row-permutation matcher inside Algorithm 1.

The paper uses the b-Suitor half-approximation for the row-to-row matching;
this ablation compares it against the exact Hungarian solver and the fast
greedy heuristic at the mapping level: total weighted mismatch cost and the
number of adjacency entries actually corrupted after mapping one batch.
"""

import time

import numpy as np

from repro.core.strategies import FaReStrategy
from repro.experiments import configs
from repro.graph.datasets import load_dataset
from repro.graph.sampling import ClusterBatchSampler
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import AdjacencyCrossbarMapper, HardwareEnvironment
from repro.utils.tabulate import format_table

from _bench_utils import bench_scale, bench_seed, record_result

MATCHERS = ("greedy", "hungarian", "bsuitor")


def _setup(scale, seed):
    settings = configs.scale_settings(scale)
    hw_config = configs.hardware_config(scale)
    graph = load_dataset("reddit", scale=scale, seed=seed)
    sampler = ClusterBatchSampler(graph, settings.num_parts, settings.batch_clusters, seed=seed)
    batch = next(iter(sampler.epoch()))
    hardware = HardwareEnvironment(
        config=hw_config,
        fault_model=FaultModel(0.05, (1.0, 1.0), seed=seed),
        weight_fraction=settings.weight_fraction,
        num_crossbars=settings.num_crossbars,
    )
    mapper = AdjacencyCrossbarMapper(hardware.adjacency_crossbars, hw_config)
    blocks, _ = mapper.decompose(batch.subgraph.adjacency)
    return batch.subgraph.adjacency, mapper, blocks, hw_config


def _evaluate(matcher, adjacency, mapper, blocks, hw_config):
    strategy = FaReStrategy(row_method=matcher)
    start = time.perf_counter()
    plan = strategy.plan_adjacency(
        [blocks], mapper.fault_maps(), mapper.crossbar_ids, hw_config.crossbar_rows
    )[0]
    elapsed = time.perf_counter() - start
    faulty = mapper.apply_mapping(adjacency, plan)
    corrupted = float(np.abs(faulty.to_dense() - adjacency.to_dense()).sum())
    return plan.total_cost, corrupted, elapsed


def test_bench_ablation_matching(run_once):
    adjacency, mapper, blocks, hw_config = _setup(bench_scale(), bench_seed())

    def sweep():
        return {
            matcher: _evaluate(matcher, adjacency, mapper, blocks, hw_config)
            for matcher in MATCHERS
        }

    results = run_once(sweep)

    rows = [
        [matcher, cost, corrupted, seconds]
        for matcher, (cost, corrupted, seconds) in results.items()
    ]
    record_result(
        "ablation_matching",
        format_table(
            ["Row matcher", "Weighted mismatch cost", "Corrupted entries", "Mapping time (s)"],
            rows,
            title="Ablation — Algorithm 1 row-permutation matcher",
        ),
    )

    # The exact solver can never be beaten on cost; the half-approximation and
    # the greedy heuristic must stay within a modest factor of it.
    hungarian_cost = results["hungarian"][0]
    for matcher in MATCHERS:
        assert results[matcher][0] >= hungarian_cost - 1e-9
        assert results[matcher][0] <= max(2.5 * hungarian_cost, hungarian_cost + 20.0)
    # Every matcher produces a usable mapping (bounded corruption).
    baseline_entries = adjacency.nnz
    for matcher in MATCHERS:
        assert results[matcher][1] < baseline_entries
