"""Fused train-step batching: block-diagonal forwards vs accumulation.

PR 10 extends the PR 9 eval-side fusion to the *training* step.  Both paths
under test share the same reference semantics — one optimizer step per
node-capped bucket of cluster mini-batches:

* **accumulate** — the reference: ``zero_grad`` once per bucket, then one
  forward + loss + ``backward`` per member, one ``step`` per bucket
  (:class:`reference.trainer.AccumulationTrainer`);
* **fused** — one block-diagonal forward per bucket (``CSRMatrix.block_diag``
  over the members' faulty read-backs, memoised against the hardware-state
  version), a segmented loss whose per-member mean weights match the
  reference exactly, and a single backward.

Losses agree to machine round-off (per-row loss gradients are bit-identical;
the fused GEMMs and ``reduceat`` loss reductions reassociate sums — the
exhaustive equivalence lives in ``tests/test_train_fused.py``).  The fused
win comes from amortising per-member Python/autograd/loss/weight-fetch
overhead across the bucket, so the measurement runs an overhead-dominated
configuration: many small cluster batches (40 parts of a 2k-node graph at CI
scale) packed into whole-graph buckets.  The fused block-diagonal *spmm*
itself is not faster at realistic block sizes (see the honest-negative note
in ``docs/ARCHITECTURE.md``); the gate is end-to-end epoch throughput.

Figure of merit: epochs per second.  Acceptance gate: ≥1.5× fused over
accumulation at CI scale (measured ≈2.1× at CI scale, ≈4.5× at
``REPRO_BENCH_SCALE=paper``, on the reference container).
"""

import time

import numpy as np

from repro.core.strategies import build_strategy
from repro.graph.datasets import synthetic_graph
from repro.graph.normalize import clear_normalize_cache
from repro.hardware.config import ReRAMConfig
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig
from repro.utils.tabulate import format_table

from _bench_utils import bench_epochs, bench_scale, bench_seed, record_result
from reference.trainer import AccumulationTrainer

MIN_SPEEDUP = 1.5
#: (nodes, partitions, epochs, repetitions) per scale.  Many small batches
#: keep the measurement overhead-dominated — that is the regime the fused
#: path targets; the huge ``train_bucket_nodes`` packs every batch into one
#: block-diagonal bucket per epoch.
SCALES = {"ci": (2000, 40, 24, 5), "paper": (4000, 64, 24, 3)}
TRAIN_BUCKET_NODES = 1_000_000


def _build_trainer(mode, nodes, parts, epochs, seed):
    graph = synthetic_graph(
        num_nodes=nodes,
        num_communities=12,
        num_features=32,
        num_classes=8,
        avg_degree=12.0,
        name="bench-train-fused",
        seed=seed + 3,
    )
    hardware = HardwareEnvironment(
        config=ReRAMConfig(
            crossbar_rows=16, crossbar_cols=16, crossbars_per_tile=160, num_tiles=2
        ),
        fault_model=FaultModel(0.05, (9.0, 1.0), seed=seed + 1),
        weight_fraction=0.5,
    )
    training = TrainingConfig(
        epochs=epochs,
        hidden_features=16,
        dropout=0.0,
        num_parts=parts,
        batch_clusters=1,
        seed=seed,
        train_bucket_nodes=TRAIN_BUCKET_NODES,
    )
    args = (graph, "gcn", build_strategy("fare"), training)
    if mode == "accumulate":
        return AccumulationTrainer(*args, hardware=hardware)
    return FaultyTrainer(*args, hardware=hardware, train_mode="fused")


def _time_modes(nodes, parts, epochs, seed, repetitions):
    """Interleaved best-of-N timing of both modes (fresh trainer each run)."""
    best = {"accumulate": float("inf"), "fused": float("inf")}
    results = {}
    for _ in range(repetitions):
        for mode in ("accumulate", "fused"):
            clear_normalize_cache()
            trainer = _build_trainer(mode, nodes, parts, epochs, seed)
            start = time.perf_counter()
            results[mode] = trainer.train()
            best[mode] = min(best[mode], time.perf_counter() - start)
    return best, results


def test_bench_train_fused(run_once):
    scale = bench_scale()
    seed = bench_seed()
    nodes, parts, epochs, repetitions = SCALES.get(scale, SCALES["ci"])
    epochs = bench_epochs() or epochs

    def run():
        best, results = _time_modes(nodes, parts, epochs, seed, repetitions)
        # Round-off contract: per-row loss gradients are bit-identical, the
        # fused GEMM / reduceat reductions reassociate sums.
        np.testing.assert_allclose(
            results["accumulate"].loss_history,
            results["fused"].loss_history,
            rtol=0,
            atol=1e-9,
        )
        assert (
            results["accumulate"].test_accuracy_history
            == results["fused"].test_accuracy_history
        )
        return {"best": best, "counters": results["fused"].counters}

    r = run_once(run)
    best, counters = r["best"], r["counters"]
    speedup = best["accumulate"] / best["fused"]

    # Acceptance gate: ≥1.5× end-to-end epoch throughput over per-member
    # gradient accumulation.  The gate runs BEFORE record_result so a failing
    # (e.g. noisy-machine) run can never emit canonical-looking artifacts.
    assert speedup >= MIN_SPEEDUP, (
        f"fused train-step speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
    # The fused machinery must actually be exercised, not bypassed, and its
    # counters must be visible through the trainer counter stream (the same
    # dict TimingBreakdown.components is updated from).
    assert counters["batched_train_buckets"] == epochs
    assert counters["train_fused_forwards"] == epochs
    assert counters["kernel_batched_train_buckets"] == epochs
    assert counters["kernel_train_fused_forwards"] == epochs
    assert counters["kernel_segment_plan_cache_hits"] >= epochs - 1

    eps = {mode: epochs / value for mode, value in best.items()}
    rows = [
        ["accumulation (reference)", eps["accumulate"], best["accumulate"], 1.0],
        ["fused block-diagonal", eps["fused"], best["fused"], speedup],
    ]
    record_result(
        "train_fused",
        format_table(
            ["Train mode", "Epochs/s", "Run time (s)", "Speedup"],
            rows,
            title=(
                f"Fused train-step batching — {nodes} nodes, {parts} batches, "
                f"{epochs} epochs "
                f"(fused forwards: {counters['train_fused_forwards']:.0f}, "
                f"plan-cache hits: "
                f"{counters['kernel_segment_plan_cache_hits']:.0f})"
            ),
        ),
        metrics={
            "train_fused.accumulate_epochs_per_s": eps["accumulate"],
            "train_fused.fused_epochs_per_s": eps["fused"],
            "train_fused.speedup": speedup,
            "train_fused.train_buckets": counters["batched_train_buckets"],
            "train_fused.fused_forwards": counters["train_fused_forwards"],
            "train_fused.segment_plan_cache_hits": counters[
                "kernel_segment_plan_cache_hits"
            ],
        },
    )
