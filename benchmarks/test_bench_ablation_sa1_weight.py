"""Ablation — SA1-criticality weighting in the mapping cost.

FARe weights SA1 mismatches more heavily than SA0 mismatches because a
spurious edge (SA1 on a zero entry) is more damaging than a deleted edge.
This ablation sweeps the weight and reports the number of spurious-edge and
deleted-edge corruptions the resulting mapping leaves in one batch.
"""

import numpy as np

from repro.core.strategies import FaReStrategy
from repro.experiments import configs
from repro.graph.datasets import load_dataset
from repro.graph.sampling import ClusterBatchSampler
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import AdjacencyCrossbarMapper, HardwareEnvironment
from repro.utils.tabulate import format_table

from _bench_utils import bench_scale, bench_seed, record_result

SA1_WEIGHTS = (1.0, 4.0, 8.0)


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


def test_bench_ablation_sa1_weight(run_once):
    adjacency, mapper, blocks, hw_config = _setup(bench_scale(), bench_seed())
    dense = adjacency.to_dense()

    def sweep():
        outcomes = {}
        for weight in SA1_WEIGHTS:
            strategy = FaReStrategy(sa1_weight=weight, row_method="greedy")
            plan = strategy.plan_adjacency(
                [blocks], mapper.fault_maps(), mapper.crossbar_ids, hw_config.crossbar_rows
            )[0]
            faulty = mapper.apply_mapping(adjacency, plan).to_dense()
            spurious = float(np.sum((faulty == 1) & (dense == 0)))
            deleted = float(np.sum((faulty == 0) & (dense == 1)))
            outcomes[weight] = (spurious, deleted)
        return outcomes

    results = run_once(sweep)

    rows = [[w, spurious, deleted] for w, (spurious, deleted) in results.items()]
    record_result(
        "ablation_sa1_weight",
        format_table(
            ["SA1 weight", "Spurious edges", "Deleted edges"],
            rows,
            title="Ablation — SA1-criticality weighting in Algorithm 1",
        ),
    )

    # Raising the SA1 weight must not increase the number of spurious edges.
    spurious_counts = [results[w][0] for w in SA1_WEIGHTS]
    assert spurious_counts[-1] <= spurious_counts[0] + 1e-9
