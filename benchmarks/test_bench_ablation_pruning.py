"""Ablation — crossbar pruning and sparsest-block relaxation (Alg. 1, l.12/14).

Compares the mapping produced with and without the two heuristics on a batch
whose candidate crossbars include several heavily SA1-faulted ones.
"""

import numpy as np

from repro.core.mapping import FaultAwareMapper
from repro.experiments import configs
from repro.graph.datasets import load_dataset
from repro.graph.sampling import ClusterBatchSampler
from repro.hardware.faults import FaultMap, FaultModel
from repro.pipeline.mapping_engine import AdjacencyCrossbarMapper, HardwareEnvironment
from repro.utils.tabulate import format_table

from _bench_utils import bench_scale, bench_seed, record_result


def _setup(scale, seed):
    settings = configs.scale_settings(scale)
    hw_config = configs.hardware_config(scale)
    graph = load_dataset("reddit", scale=scale, seed=seed)
    sampler = ClusterBatchSampler(graph, settings.num_parts, settings.batch_clusters, seed=seed)
    batch = next(iter(sampler.epoch()))
    hardware = HardwareEnvironment(
        config=hw_config,
        fault_model=FaultModel(0.03, (1.0, 1.0), seed=seed),
        weight_fraction=settings.weight_fraction,
        num_crossbars=settings.num_crossbars,
    )
    mapper = AdjacencyCrossbarMapper(hardware.adjacency_crossbars, hw_config)
    # Saturate a handful of crossbars with SA1 faults so pruning has targets.
    rng = np.random.default_rng(seed)
    for crossbar in rng.choice(mapper.crossbars, size=4, replace=False):
        crossbar.set_fault_map(
            FaultMap(
                np.zeros((crossbar.rows, crossbar.cols), dtype=bool),
                rng.random((crossbar.rows, crossbar.cols)) < 0.4,
            )
        )
    blocks, _ = mapper.decompose(batch.subgraph.adjacency)
    return batch.subgraph.adjacency, mapper, blocks


def test_bench_ablation_pruning(run_once):
    adjacency, mapper, blocks = _setup(bench_scale(), bench_seed())

    def sweep():
        outcomes = {}
        for label, prune, relax in (
            ("pruning on", True, True),
            ("pruning off", False, False),
        ):
            fault_aware = FaultAwareMapper(
                sa1_weight=4.0,
                row_method="greedy",
                prune_crossbars=prune,
                relax_sparsest_block=relax,
            )
            plan = fault_aware.map_blocks(blocks, mapper.fault_maps(), mapper.crossbar_ids)
            faulty = mapper.apply_mapping(adjacency, plan)
            corrupted = float(np.abs(faulty.to_dense() - adjacency.to_dense()).sum())
            outcomes[label] = (plan.total_cost, corrupted, len(plan.pruned_crossbars))
        return outcomes

    results = run_once(sweep)

    rows = [
        [label, cost, corrupted, pruned]
        for label, (cost, corrupted, pruned) in results.items()
    ]
    record_result(
        "ablation_pruning",
        format_table(
            ["Configuration", "Weighted mismatch cost", "Corrupted entries", "Pruned crossbars"],
            rows,
            title="Ablation — crossbar pruning / sparsest-block relaxation",
        ),
    )

    # Pruning must not make the mapping worse.
    assert results["pruning on"][1] <= results["pruning off"][1] + 1e-9
