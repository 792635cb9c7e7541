#!/usr/bin/env python
"""Large-graph quickstart: train on a million-node graph in bounded memory.

Generates a planted-partition graph chunk-by-chunk (no dense ``N x N``
intermediate), partitions it with the streaming multilevel matcher, and
trains one epoch of a GCN on faulty ReRAM hardware.  Each batch keeps a lazy
view of its crossbar-sized adjacency blocks (O(nnz) cell indices).  The
fault-unaware plan counts each block's mismatches over those edge
coordinates and builds no block (FARe and NR build a block only while they
read it), and the faulty read-back is sparse and builds no blocks either.
The report at the end shows the process peak RSS next to the size the
planned blocks would take if they were kept dense.

At the default 1,000,000 nodes (~8 M edges) this takes a few minutes and
peaks below 2 GiB; ``--nodes 120000`` finishes in about 4 s (2-vCPU host).

The training step runs in the fused mode by default — one block-diagonal
forward, a segmented per-member loss, and one optimizer step per
node-capped bucket of cluster batches; ``--train-mode per_batch`` runs the
seed one-step-per-batch loop.

Usage:
    python examples/large_graph.py [--nodes 1000000] [--seed 0]
                                   [--train-mode fused|per_batch]
"""

from __future__ import annotations

import argparse
import time

from repro.core.strategies import build_strategy
from repro.graph.datasets import synthetic_graph_streaming
from repro.hardware.config import ReRAMConfig
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import HardwareEnvironment, peak_rss_bytes
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig

MIB = float(1024**2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1_000_000, help="graph size")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--train-mode",
        choices=("per_batch", "fused"),
        default="fused",
        help="training step: fused block-diagonal buckets (default) "
        "or the seed per-batch loop",
    )
    args = parser.parse_args()

    parts = max(2, args.nodes // 1250)
    print(f"Generating {args.nodes:,}-node graph (chunked, no dense N x N) ...")
    start = time.perf_counter()
    graph = synthetic_graph_streaming(
        args.nodes, parts, 8, 8, avg_degree=8.0, seed=args.seed + 3
    )
    gen_s = time.perf_counter() - start
    print(f"  {graph.adjacency.nnz:,} edges in {gen_s:.1f}s")

    hardware = HardwareEnvironment(
        config=ReRAMConfig(
            crossbar_rows=64, crossbar_cols=64, crossbars_per_tile=160, num_tiles=2
        ),
        fault_model=FaultModel(0.05, (9.0, 1.0), seed=args.seed + 4),
        weight_fraction=0.5,
    )
    training = TrainingConfig(
        epochs=1,
        hidden_features=16,
        dropout=0.0,
        num_parts=parts,
        batch_clusters=1,
        seed=args.seed,
    )

    print(f"Partitioning into {parts} parts (streaming matcher) ...")
    start = time.perf_counter()
    trainer = FaultyTrainer(
        graph,
        "gcn",
        build_strategy("fault_unaware"),
        training,
        hardware=hardware,
        train_mode=args.train_mode,
    )
    preprocess_s = time.perf_counter() - start
    print(f"  done in {preprocess_s:.1f}s; train mode: {trainer.train_mode}")

    print("Training 1 epoch on faulty hardware ...")
    start = time.perf_counter()
    result = trainer.train()
    train_s = time.perf_counter() - start

    config = hardware.config
    dense_bytes = (
        result.counters["total_blocks"] * config.crossbar_rows * config.crossbar_cols * 8
    )
    print()
    print(f"loss {result.loss_history[-1]:.3f}, "
          f"test accuracy {result.test_accuracy_history[-1]:.3f} "
          f"({train_s:.1f}s)")
    print(f"peak RSS                  {peak_rss_bytes() / MIB:8.0f} MiB")
    print(f"dense blocks if retained  {dense_bytes / MIB:8.0f} MiB "
          "(planned blocks, never resident at once)")


if __name__ == "__main__":
    main()
