#!/usr/bin/env python
"""Explore how Algorithm 1 places adjacency blocks on faulty crossbars.

Builds a small accelerator, injects clustered stuck-at faults, decomposes one
mini-batch adjacency matrix into crossbar-sized blocks, and compares three
placements:

* the naive sequential (fault-unaware) mapping,
* neuron-reordering's coarse row-group permutation,
* FARe's fault-aware mapping (Algorithm 1),

reporting the number of spurious/deleted edges each one leaves in the
adjacency actually seen by the aggregation phase, plus the per-block
placement decisions FARe made.

Usage:
    python examples/fault_map_explorer.py [--density 0.05] [--ratio 1 1]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.strategies import FaReStrategy, FaultUnawareStrategy, NeuronReorderingStrategy
from repro.experiments import configs
from repro.graph.datasets import load_dataset
from repro.graph.sampling import ClusterBatchSampler
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import AdjacencyCrossbarMapper, HardwareEnvironment
from repro.utils.tabulate import format_table


def corruption_counts(adjacency, faulty) -> tuple:
    ideal = adjacency.to_dense()
    observed = faulty.to_dense()
    spurious = int(np.sum((observed == 1) & (ideal == 0)))
    deleted = int(np.sum((observed == 0) & (ideal == 1)))
    return spurious, deleted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--density", type=float, default=0.05)
    parser.add_argument("--ratio", type=float, nargs=2, default=(1.0, 1.0), metavar=("SA0", "SA1"))
    parser.add_argument("--dataset", default="reddit", choices=["ppi", "reddit", "amazon2m", "ogbl"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    settings = configs.scale_settings("ci")
    hw_config = configs.hardware_config("ci")
    graph = load_dataset(args.dataset, scale="ci", seed=args.seed)
    sampler = ClusterBatchSampler(
        graph, settings.num_parts, settings.batch_clusters, seed=args.seed
    )
    batch = next(iter(sampler.epoch()))

    hardware = HardwareEnvironment(
        config=hw_config,
        fault_model=FaultModel(args.density, tuple(args.ratio), seed=args.seed),
        weight_fraction=settings.weight_fraction,
        num_crossbars=settings.num_crossbars,
    )
    mapper = AdjacencyCrossbarMapper(hardware.adjacency_crossbars, hw_config)
    blocks, _ = mapper.decompose(batch.subgraph.adjacency)
    report = hardware.bist.scan(mapper.crossbars)

    print(
        f"Batch subgraph: {batch.num_nodes} nodes, {batch.num_edges} directed edges, "
        f"{len(blocks)} blocks of {hw_config.crossbar_rows}x{hw_config.crossbar_cols}"
    )
    print(
        f"Adjacency crossbars: {len(mapper.crossbars)}, overall fault density "
        f"{hardware.overall_fault_density():.3%} (SA0:SA1 = {args.ratio[0]:.0f}:{args.ratio[1]:.0f})"
    )
    print()

    strategies = {
        "fault_unaware": FaultUnawareStrategy(),
        "nr": NeuronReorderingStrategy(),
        "fare": FaReStrategy(row_method="greedy"),
    }
    rows = []
    fare_plan = None
    for name, strategy in strategies.items():
        plan = strategy.plan_adjacency(
            [blocks], report.fault_maps, mapper.crossbar_ids, hw_config.crossbar_rows
        )[0]
        faulty = mapper.apply_mapping(batch.subgraph.adjacency, plan)
        spurious, deleted = corruption_counts(batch.subgraph.adjacency, faulty)
        rows.append([name, spurious, deleted, spurious + deleted])
        if name == "fare":
            fare_plan = plan
    print(
        format_table(
            ["Mapping strategy", "Spurious edges (SA1)", "Deleted edges (SA0)", "Total corrupted"],
            rows,
            title="Adjacency corruption after mapping one batch",
        )
    )

    print()
    block_rows = []
    for mapping in fare_plan.blocks:
        fmap = mapper.by_id[mapping.crossbar_index].fault_map
        block_rows.append(
            [
                mapping.block_index,
                mapping.crossbar_index,
                float(np.mean(blocks[mapping.block_index])),
                fmap.num_sa0,
                fmap.num_sa1,
                mapping.cost,
                mapping.sa1_mismatch,
            ]
        )
    print(
        format_table(
            [
                "Block",
                "Crossbar",
                "Block density",
                "Crossbar SA0",
                "Crossbar SA1",
                "Weighted cost",
                "Residual SA1 overlap",
            ],
            block_rows,
            title="FARe block -> crossbar placement (Algorithm 1)",
        )
    )
    if fare_plan.pruned_crossbars:
        print(f"\nCrossbars pruned as hopeless: {fare_plan.pruned_crossbars}")
    if fare_plan.relaxed_blocks:
        print(f"Blocks relaxed out of the assignment: {fare_plan.relaxed_blocks}")


if __name__ == "__main__":
    main()
