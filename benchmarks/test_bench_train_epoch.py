"""End-to-end epoch throughput — epoch-cached read-back vs. seed recomputation.

PR 1 made mapping *planning* fast; this benchmark tracks the training loop
itself.  The same hardware-backed FARe training run (synthetic community
graph, miniature 16×16-crossbar accelerator, per-epoch train pass plus
train/test evaluation) is executed twice:

* **uncached** — the seed per-batch path: every batch re-programs and
  re-reads its adjacency blocks through the per-block loop and re-runs the
  unfused quantise→bit-slice→fault→reassemble→dequantise weight pipeline per
  layer per forward (:func:`reference.hardware.uncached_hardware`);
* **cached** — the epoch-cached subsystem (``core/hw_state.py``): batched
  block read-back, versioned adjacency/effective-weight caches, fused
  quantise→fault→dequantise pass.

Both runs are bit-identical (loss histories asserted equal here, proven
exhaustively in ``tests/test_core_hw_state.py``); the figure of merit is
batches-per-second over the whole training run.  The acceptance gate is a
≥3× speedup at CI scale.
"""

import time

from repro.core.strategies import build_strategy
from repro.graph.datasets import synthetic_graph
from repro.hardware.config import ReRAMConfig
from repro.hardware.faults import FaultModel
from repro.pipeline.mapping_engine import HardwareEnvironment
from repro.pipeline.trainer import TrainingConfig
from repro.utils.tabulate import format_table

from _bench_utils import bench_epochs, bench_scale, bench_seed, record_result
from reference.hardware import uncached_hardware
from reference.trainer import PerSplitEvalTrainer

MIN_SPEEDUP = 3.0
#: (nodes, epochs) per scale; the graph/model stay small so the hardware
#: simulation — the thing this PR accelerates — dominates the seed path the
#: way it does at paper scale (128×128 crossbars, thousands of blocks).
SCALES = {"ci": (256, 6), "paper": (512, 12)}


def _build_trainer(cached, nodes, epochs, seed):
    graph = synthetic_graph(
        num_nodes=nodes,
        num_communities=4,
        num_features=8,
        num_classes=4,
        avg_degree=4.0,
        name="bench-train",
        seed=seed + 3,
    )
    config = ReRAMConfig(
        crossbar_rows=16, crossbar_cols=16, crossbars_per_tile=160, num_tiles=2
    )
    hardware = HardwareEnvironment(
        config=config,
        fault_model=FaultModel(0.05, (9.0, 1.0), seed=seed + 1),
        weight_fraction=0.5,
    )
    training = TrainingConfig(
        epochs=epochs,
        hidden_features=16,
        dropout=0.0,
        num_parts=4,
        batch_clusters=2,
        seed=seed,
    )

    # Pin both arms to the per-split eval loop: this gate isolates the
    # hw-state cache subsystem, and the vectorised eval accelerates the
    # uncached baseline too, compressing the ratio it measures.  The
    # vectorised paths have their own gate in test_bench_multigraph_train.py.
    def build():
        return PerSplitEvalTrainer(
            graph,
            "gcn",
            build_strategy("fare"),
            training,
            hardware=hardware,
            use_agg_precompute=False,
        )

    if cached:
        return build()
    with uncached_hardware():
        return build()


def _time_paths(nodes, epochs, seed, repetitions=3):
    """Interleaved best-of-N timing of both paths (fresh trainer each run).

    Alternating uncached/cached repetitions makes machine-wide noise (CPU
    frequency, background load) hit both paths alike instead of biasing
    whichever happened to run during the quiet window.
    """
    best = {False: float("inf"), True: float("inf")}
    results = {}
    num_batches = 1
    for _ in range(repetitions):
        for cached in (False, True):
            trainer = _build_trainer(cached, nodes, epochs, seed)
            start = time.perf_counter()
            results[cached] = trainer.train()
            best[cached] = min(best[cached], time.perf_counter() - start)
            num_batches = len(trainer.batches)
    total_batches = epochs * num_batches
    return (
        (total_batches / best[False], best[False], results[False]),
        (total_batches / best[True], best[True], results[True]),
    )


def test_bench_train_epoch(run_once):
    scale = bench_scale()
    seed = bench_seed()
    nodes, epochs = SCALES.get(scale, SCALES["ci"])
    epochs = bench_epochs() or epochs

    def run():
        (
            (uncached_bps, uncached_s, uncached_result),
            (cached_bps, cached_s, cached_result),
        ) = _time_paths(nodes, epochs, seed)
        # The cached run must be the *same* training run, bit for bit.
        assert uncached_result.loss_history == cached_result.loss_history
        assert (
            uncached_result.test_accuracy_history
            == cached_result.test_accuracy_history
        )
        assert (
            uncached_result.counters["block_write_events"]
            == cached_result.counters["block_write_events"]
        )
        assert (
            uncached_result.counters["weight_write_events"]
            == cached_result.counters["weight_write_events"]
        )
        return {
            "uncached_bps": uncached_bps,
            "cached_bps": cached_bps,
            "uncached_s": uncached_s,
            "cached_s": cached_s,
            "counters": cached_result.counters,
        }

    r = run_once(run)
    speedup = r["cached_bps"] / r["uncached_bps"]
    counters = r["counters"]
    rows = [
        ["uncached (seed per-batch loop)", r["uncached_bps"], r["uncached_s"], 1.0],
        ["cached (hw_state subsystem)", r["cached_bps"], r["cached_s"], speedup],
    ]
    record_result(
        "train_epoch_throughput",
        format_table(
            ["Path", "Batches/s", "Run time (s)", "Speedup"],
            rows,
            title=(
                f"End-to-end training throughput — {nodes} nodes, {epochs} epochs "
                f"(adjacency cache hits: {counters.get('hw_adjacency_cache_hits', 0):.0f}, "
                f"weight cache hits: {counters.get('hw_weight_cache_hits', 0):.0f})"
            ),
        ),
        metrics={
            "train_epoch.uncached_batches_per_s": r["uncached_bps"],
            "train_epoch.cached_batches_per_s": r["cached_bps"],
            "train_epoch.speedup": speedup,
            "train_epoch.adjacency_cache_hits": counters.get(
                "hw_adjacency_cache_hits", 0.0
            ),
            "train_epoch.weight_cache_hits": counters.get("hw_weight_cache_hits", 0.0),
        },
    )

    # Acceptance gate: the epoch-cached subsystem must deliver at least a 3×
    # end-to-end speedup over the seed per-batch recomputation at CI scale.
    assert speedup >= MIN_SPEEDUP, (
        f"epoch-cache speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
    # The caches must actually be exercised, not bypassed.
    assert counters.get("hw_adjacency_cache_hits", 0) > 0
    assert counters.get("hw_weight_cache_hits", 0) > 0
