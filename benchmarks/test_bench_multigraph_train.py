"""Multi-graph vectorised training + memory-bounded million-node streaming.

PR 9 vectorises the epoch loop *across* cluster mini-batches and opens a
streaming mode for graphs far beyond the retained-blocks memory budget.
Two legs:

**Throughput** — the same Fig.-4-shaped FARe training run (community graph,
per-epoch train pass plus train/test accuracy tracking) executed twice:

* **per-batch** — the seed loop: one eval forward per batch *per split* per
  epoch, per-batch adjacency fetches, per-call aggregation
  (:class:`reference.trainer.PerSplitEvalTrainer` with
  ``use_agg_precompute=False``);
* **vectorised** — one shared eval forward per block-diagonal bucket per
  epoch, bucket inputs memoised against the hardware-state version, and the
  first-layer aggregation precomputed once per (adjacency, features) pair.

Histories agree within the documented round-off contract (GCN's
preaggregation reassociates one GEMM; exhaustive equivalence in
``tests/test_multigraph_vectorized.py``).  The figure of merit is epochs
per second; the acceptance gate is a ≥2× end-to-end speedup at CI scale.

**Streaming** — a fresh subprocess generates a large synthetic graph in
chunks, partitions it with the sampling-based streaming matcher, and trains
one epoch in streaming-blocks mode (no retained dense blocks; transient
decomposition per state change).  The child reports its own peak RSS and
the decompose counters; the gate asserts the peak stays under the
documented ceiling and that the bytes *transiently* materialised exceed the
resident peak — the proof that block storage was streamed, not retained.
At CI scale the leg runs 120k nodes; ``REPRO_BENCH_SCALE=paper`` runs the
full 10^6-node graph (~8M edges, measured ≈151 s end-to-end, ≈1.8 GiB
peak — against ≈14.7 GiB of blocks a retained run would hold).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

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
from reference.trainer import PerSplitEvalTrainer

MIN_SPEEDUP = 2.0
#: (nodes, epochs, repetitions) per scale.  Long runs amortise the one-time
#: programming/read-back epoch that both paths share, so the steady-state
#: per-epoch advantage dominates the measurement.
SCALES = {"ci": (2000, 24, 5), "paper": (4000, 36, 3)}

#: Streaming leg: (nodes, peak-RSS ceiling in MiB).  Measured peaks on the
#: reference container (child-process VmHWM — ``peak_rss_bytes`` reads
#: /proc, because ru_maxrss survives execve and would report the pytest
#: parent's peak): ≈383 MiB at 120k nodes, ≈1806 MiB at 10^6 nodes —
#: ceilings sit ≈2.7×/1.7× above so the gate trips on regressions to
#: retained/dense behaviour (a retained-blocks run needs ≈14.7 GiB at 10^6
#: nodes; a dense N×N is 8 TB), not on allocator jitter.
STREAM_SCALES = {"ci": (120_000, 1024), "paper": (1_000_000, 3072)}

_STREAM_CHILD = r"""
import json, sys, time
from repro.core.strategies import build_strategy
from repro.graph.datasets import synthetic_graph_streaming
from repro.hardware.config import ReRAMConfig
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import (
    DECOMPOSE_COUNTERS, HardwareEnvironment, peak_rss_bytes,
)
from repro.pipeline.trainer import FaultyTrainer, TrainingConfig

nodes, seed = int(sys.argv[1]), int(sys.argv[2])
parts = max(2, nodes // 1250)
start = time.perf_counter()
graph = synthetic_graph_streaming(
    nodes, parts, 8, 8, avg_degree=8.0, seed=seed + 3
)
gen_s = time.perf_counter() - start
hardware = HardwareEnvironment(
    config=ReRAMConfig(
        crossbar_rows=64, crossbar_cols=64, crossbars_per_tile=160, num_tiles=2
    ),
    fault_model=FaultModel(0.05, (9.0, 1.0), seed=seed + 4),
    weight_fraction=0.5,
)
training = TrainingConfig(
    epochs=1, hidden_features=16, dropout=0.0, num_parts=parts,
    batch_clusters=1, seed=seed,
)
start = time.perf_counter()
trainer = FaultyTrainer(
    graph, "gcn", build_strategy("fault_unaware"), training, hardware=hardware
)
preprocess_s = time.perf_counter() - start
start = time.perf_counter()
result = trainer.train()
train_s = time.perf_counter() - start
payload = {
    "nodes": graph.num_nodes,
    "edges": int(graph.adjacency.nnz),
    "parts": parts,
    "streaming": trainer.streaming_blocks_active,
    "loss_history": result.loss_history,
    "test_accuracy": result.test_accuracy_history[-1],
    "total_blocks": result.counters["total_blocks"],
    "gen_s": gen_s,
    "preprocess_s": preprocess_s,
    "train_s": train_s,
    "peak_rss_bytes": peak_rss_bytes(),
}
payload.update(DECOMPOSE_COUNTERS.as_dict())
print(json.dumps(payload))
"""


def _build_trainer(vectorised, nodes, epochs, seed):
    graph = synthetic_graph(
        num_nodes=nodes,
        num_communities=12,
        num_features=64,
        num_classes=12,
        avg_degree=16.0,
        name="bench-multigraph",
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
        hidden_features=64,
        dropout=0.0,
        num_parts=24,
        batch_clusters=2,
        seed=seed,
    )
    trainer_cls = FaultyTrainer if vectorised else PerSplitEvalTrainer
    return trainer_cls(
        graph,
        "gcn",
        build_strategy("fare"),
        training,
        hardware=hardware,
        use_agg_precompute=vectorised,
    )


def _time_paths(nodes, epochs, seed, repetitions):
    """Interleaved best-of-N timing of both paths (fresh trainer each run)."""
    best = {False: float("inf"), True: float("inf")}
    results = {}
    for _ in range(repetitions):
        for vectorised in (False, True):
            clear_normalize_cache()
            trainer = _build_trainer(vectorised, nodes, epochs, seed)
            start = time.perf_counter()
            results[vectorised] = trainer.train()
            best[vectorised] = min(best[vectorised], time.perf_counter() - start)
    return best, results


def test_bench_multigraph_throughput(run_once):
    scale = bench_scale()
    seed = bench_seed()
    nodes, epochs, repetitions = SCALES.get(scale, SCALES["ci"])
    epochs = bench_epochs() or epochs

    def run():
        best, results = _time_paths(nodes, epochs, seed, repetitions)
        # Round-off contract: the sparse kernels are bit-identical per
        # member, the GCN preaggregation reassociates one dense GEMM.
        np.testing.assert_allclose(
            results[False].loss_history,
            results[True].loss_history,
            rtol=1e-9,
            atol=1e-12,
        )
        assert (
            results[False].test_accuracy_history
            == results[True].test_accuracy_history
        )
        assert (
            results[False].train_accuracy_history
            == results[True].train_accuracy_history
        )
        return {"best": best, "counters": results[True].counters}

    r = run_once(run)
    best, counters = r["best"], r["counters"]
    speedup = best[False] / best[True]
    eps = {key: epochs / value for key, value in best.items()}
    rows = [
        ["per-batch (seed eval loop)", eps[False], best[False], 1.0],
        ["vectorised (fused buckets)", eps[True], best[True], speedup],
    ]
    record_result(
        "multigraph_train_throughput",
        format_table(
            ["Path", "Epochs/s", "Run time (s)", "Speedup"],
            rows,
            title=(
                f"Multi-graph vectorised training — {nodes} nodes, "
                f"{epochs} epochs, 12 batches "
                f"(buckets: {counters['batched_eval_buckets']:.0f}, "
                f"graphs fused: {counters['kernel_batched_graphs_fused']:.0f})"
            ),
        ),
        metrics={
            "multigraph.per_batch_epochs_per_s": eps[False],
            "multigraph.vectorised_epochs_per_s": eps[True],
            "multigraph.speedup": speedup,
            "multigraph.eval_buckets": counters["batched_eval_buckets"],
            "multigraph.graphs_fused": counters["kernel_batched_graphs_fused"],
        },
    )

    # Acceptance gate: ≥2× end-to-end epoch throughput over the per-batch
    # loop (measured ≈2.4× at CI scale on the reference container).
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised epoch speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
    # The batched machinery must actually be exercised, not bypassed.
    assert counters["batched_eval_forwards"] > 0
    assert counters["batched_eval_buckets"] > 0
    assert counters["kernel_batched_graphs_fused"] > 0
    assert counters["kernel_batched_agg_cache_hits"] > 0


def test_bench_streaming_million_nodes(run_once):
    scale = bench_scale()
    seed = bench_seed()
    nodes, ceiling_mib = STREAM_SCALES.get(scale, STREAM_SCALES["ci"])

    def run():
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _STREAM_CHILD, str(nodes), str(seed)],
            capture_output=True,
            text=True,
            env=env,
            check=False,
            timeout=1800,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.splitlines()[-1])

    data = run_once(run)
    peak_mib = data["peak_rss_bytes"] / 2**20
    materialised_mib = data["decompose_bytes_materialised"] / 2**20
    total_s = data["gen_s"] + data["preprocess_s"] + data["train_s"]
    rows = [
        ["nodes", f"{data['nodes']:,}"],
        ["edges", f"{data['edges']:,}"],
        ["partitions / batches", f"{data['parts']:,}"],
        ["adjacency blocks (transient)", f"{data['total_blocks']:,.0f}"],
        ["generate (s)", f"{data['gen_s']:.1f}"],
        ["partition+plan (s)", f"{data['preprocess_s']:.1f}"],
        ["train 1 epoch (s)", f"{data['train_s']:.1f}"],
        ["peak RSS (MiB)", f"{peak_mib:.0f}"],
        ["blocks materialised, cumulative (MiB)", f"{materialised_mib:.0f}"],
        ["documented ceiling (MiB)", f"{ceiling_mib}"],
    ]
    record_result(
        "multigraph_streaming",
        format_table(
            ["Quantity", "Value"],
            rows,
            title=f"Memory-bounded streaming training — {data['nodes']:,} nodes",
        ),
        metrics={
            "multigraph.streaming_nodes": data["nodes"],
            "multigraph.streaming_edges": data["edges"],
            "multigraph.streaming_gen_s": data["gen_s"],
            "multigraph.streaming_preprocess_s": data["preprocess_s"],
            "multigraph.streaming_train_s": data["train_s"],
            "multigraph.streaming_total_s": total_s,
            "multigraph.streaming_peak_rss_mib": peak_mib,
            "multigraph.streaming_nodes_per_s": data["nodes"] / total_s,
        },
    )

    # The run must actually stream: auto-enabled above the node threshold,
    # one full epoch trained, finite loss.
    assert data["streaming"] is True
    assert len(data["loss_history"]) == 1
    assert np.isfinite(data["loss_history"][0])
    assert data["decompose_calls"] >= data["parts"]
    # Acceptance gate: peak resident memory under the documented ceiling.
    assert peak_mib <= ceiling_mib, (
        f"streaming peak RSS {peak_mib:.0f} MiB exceeds ceiling {ceiling_mib} MiB"
    )
    # Streamed, not retained: the cumulative bytes transiently materialised
    # by decompose exceed the process's resident peak.
    assert data["decompose_bytes_materialised"] > data["peak_rss_bytes"]
