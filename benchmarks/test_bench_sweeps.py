"""Sweep-engine orchestration throughput — declarative plan vs seed serial loop.

PR 1–4 made planning, read-back and the GNN kernels fast; what remained was
the orchestration layer: the seed experiments stack ran every grid cell
through a serial ``run_single`` that rebuilt the dataset, the cluster
partition, the block decomposition, the hardware environment and the BIST
scan from scratch.  This benchmark times a **Fig. 4-shaped
(strategy × fault-density × seed) grid** both ways:

* **seed loop** — the pre-refactor behaviour: one cold ``run_single``
  (``tests/reference/sweeps.py::seed_execute_spec``, every input rebuilt
  from scratch) per cell, serially;
* **sweep engine** — the same grid as one :class:`SweepPlan` through a cold
  :class:`SweepEngine`: preprocessing artifacts are content-keyed and shared
  across cells, results keyed by spec.

The strategy axis is the mitigation set whose mapping planning is trivial
(fault-free reference, fault-unaware, clipping, NR).  FARe is deliberately
not in the gated grid: its Algorithm 1 planning is per-(strategy, fault
signature) work that no orchestration layer can share across cells of this
grid — that cost is tracked by ``test_bench_mapping_throughput`` /
``test_bench_exact_matching``, and where grids *do* repeat a FARe plan
(across models, panels or clipping ablations) the engine shares it like any
other artifact.

Gates: ≥2.5× cold wall-clock for the engine over the seed loop,
bit-identical histories between the two, and bit-identical spec-keyed
results between serial and process-parallel execution.  Measured
~2.9–3.2× cold on CI containers (the engine's floor here is the 20
training runs themselves, which no orchestration layer can share); the
interleaved best-of-3 timing plus the margin below the worst observed
draw keep machine noise from flaking the gate (same margin discipline as
``test_bench_train_epoch``).
"""

import time

from repro.experiments.sweeps import SweepEngine, SweepPlan

from _bench_utils import bench_epochs, bench_scale, bench_seed, record_result
from reference.sweeps import seed_execute_spec
from repro.utils.tabulate import format_table

MIN_SPEEDUP = 2.5

#: Strategies of the gated grid (see module docstring for why not FARe).
GRID_STRATEGIES = ("fault_free", "fault_unaware", "clipping", "nr")

#: (dataset, model, densities, seeds, epochs) per benchmark scale.  The grid
#: shape matches Fig. 4 — a strategy × fault-density × seed sweep over one
#: workload — at sizes where the complete interleaved measurement stays in
#: CPU-seconds.
SCALES = {
    "ci": ("reddit", "gcn", (0.01, 0.03, 0.05), (0, 1), 1),
    "paper": ("reddit", "gcn", (0.01, 0.03, 0.05), (0,), 1),
}


def _grid(scale):
    dataset, model, densities, seeds, epochs = SCALES.get(scale, SCALES["ci"])
    epochs = bench_epochs() or epochs
    seeds = tuple(s + bench_seed() for s in seeds)
    plan = SweepPlan.grid(
        datasets=[(dataset, model)],
        strategies=GRID_STRATEGIES,
        fault_densities=densities,
        seeds=seeds,
        scale="ci" if scale not in ("ci", "paper") else scale,
        epochs=epochs,
    )
    return plan, dataset, epochs


def _time_paths(plan, repetitions=3):
    """Interleaved best-of-N timing of both cold paths.

    Alternating seed-loop/engine repetitions makes machine-wide noise hit
    both paths alike.  Every repetition is cold: the seed loop rebuilds
    everything by construction, the engine starts from a fresh instance
    (empty memo, empty artifact caches, no store).
    """
    best = {"loop": float("inf"), "engine": float("inf")}
    results = {}
    summaries = {}
    for _ in range(repetitions):
        start = time.perf_counter()
        results["loop"] = {spec: seed_execute_spec(spec) for spec in plan}
        best["loop"] = min(best["loop"], time.perf_counter() - start)

        engine = SweepEngine()
        start = time.perf_counter()
        results["engine"] = engine.run(plan).results
        best["engine"] = min(best["engine"], time.perf_counter() - start)
        summaries["engine"] = engine.summary()
    return best, results, summaries


def _outcome(result):
    return (
        result.loss_history,
        result.train_accuracy_history,
        result.test_accuracy_history,
        result.final_test_accuracy,
    )


def test_bench_sweeps(run_once):
    scale = bench_scale()
    plan, dataset, epochs = _grid(scale)

    def run():
        best, results, summaries = _time_paths(plan)
        # The engine must reproduce the seed loop bit for bit.
        for spec in plan:
            assert _outcome(results["loop"][spec]) == _outcome(results["engine"][spec]), spec

        # Parallel execution: same plan, fresh engine, two spawned workers —
        # spec-keyed results must match serial execution exactly.
        parallel_engine = SweepEngine(max_workers=2)
        start = time.perf_counter()
        parallel = parallel_engine.run(plan).results
        parallel_s = time.perf_counter() - start
        for spec in plan:
            assert _outcome(parallel[spec]) == _outcome(results["engine"][spec]), spec
        return best, summaries, parallel_s

    best, summaries, parallel_s = run_once(run)
    speedup = best["loop"] / best["engine"]
    summary = summaries["engine"]
    shared = sum(v for k, v in summary.items() if k.startswith("artifact_") and k.endswith("_hits"))
    rows = [
        ["seed serial run_single loop", best["loop"], 1.0],
        ["sweep engine (serial, shared artifacts)", best["engine"], speedup],
        ["sweep engine (2 spawned workers)", parallel_s, best["loop"] / parallel_s],
    ]
    record_result(
        "sweeps_orchestration",
        format_table(
            ["Path", "Wall clock (s)", "Speedup"],
            rows,
            float_fmt=".3f",
            title=(
                f"Fig. 4-shaped sweep ({dataset}, {len(plan)} unique specs, "
                f"{epochs} epoch(s)) — cold orchestration wall-clock "
                f"({shared:.0f} artifact-cache hits)"
            ),
        ),
        metrics={
            "sweeps.loop_s": best["loop"],
            "sweeps.engine_s": best["engine"],
            "sweeps.parallel_s": parallel_s,
            "sweeps.speedup": speedup,
            "sweeps.grid_cells": float(len(plan)),
            "sweeps.artifact_hits": shared,
        },
    )

    # Acceptance gate: the declarative engine must run the grid at least 3×
    # faster than the seed serial loop, cold, at CI scale.
    assert speedup >= MIN_SPEEDUP, f"sweep speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    # The sharing must actually have happened, not be incidental timing.
    assert shared > 0
    assert summary["runs_executed"] == float(len(plan))
