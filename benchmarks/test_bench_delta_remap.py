"""Incremental fault-delta re-planning vs from-scratch re-planning.

Progressive fault accumulation is the device-lifetime scenario: plan once,
then repeatedly inject a small fault delta (here: ε extra density into 2 of
the crossbars) and re-plan.  The delta path chains
:meth:`FaultAwareMapper.replan_blocks` from the previous
:class:`MapperPlanState` — only the changed columns of the cost grid are
re-solved, warm-started where provable — while the from-scratch path runs a
fresh cold :meth:`map_blocks` per step, which is exactly what a mapper
without plan-state capture would have to do.

Every delta plan is asserted bit-identical to its cold counterpart (the
exhaustive fuzz proof lives in ``tests/test_core_delta_planning.py``); the
acceptance gate requires the delta chain to beat from-scratch by ≥ 5× for
all three row methods on the headline scenario.
"""

import time

import numpy as np

from repro.core.mapping import FaultAwareMapper
from repro.hardware.faults import FaultModel
from repro.utils.tabulate import format_table

from _bench_utils import bench_scale, bench_seed, record_result

CROSSBAR_SIZE = 32
BLOCK_DENSITY = 0.08
BASE_FAULT_RATE = 0.10
DELTA_STEPS = 6
MAPS_PER_DELTA = 2  # crossbars hit by each injection step
EXTRA_DENSITY = 0.005  # ε density added to each hit crossbar per step
HEADLINE = (16, 32)  # (blocks, crossbars) — acceptance gate
SWEEP_CI = [HEADLINE]
SWEEP_PAPER = [HEADLINE, (32, 64)]
METHODS = ("greedy", "hungarian", "bsuitor")
MIN_DELTA_SPEEDUP = 5.0


def _make_sequence(num_blocks, num_crossbars, seed):
    """Base case plus the per-step fault-map snapshots (shared by both paths)."""
    rng = np.random.default_rng(seed)
    blocks = [
        (rng.random((CROSSBAR_SIZE, CROSSBAR_SIZE)) < BLOCK_DENSITY).astype(float)
        for _ in range(num_blocks)
    ]
    model = FaultModel(BASE_FAULT_RATE, (9.0, 1.0), seed=seed + 1)
    maps_per_step = [model.generate(num_crossbars, CROSSBAR_SIZE, CROSSBAR_SIZE)]
    for _ in range(DELTA_STEPS):
        current = maps_per_step[-1]
        updated = [fmap.copy() for fmap in current]
        hit = rng.choice(num_crossbars, size=MAPS_PER_DELTA, replace=False)
        for index in hit:
            updated[index] = model.inject_additional(
                [current[index]], EXTRA_DENSITY
            )[0]
        maps_per_step.append(updated)
    return blocks, maps_per_step


def _identical(a, b):
    if a.pruned_crossbars != b.pruned_crossbars or a.relaxed_blocks != b.relaxed_blocks:
        return False
    for x, y in zip(a.blocks, b.blocks):
        if (
            x.block_index != y.block_index
            or x.crossbar_index != y.crossbar_index
            or x.cost != y.cost
            or x.sa1_mismatch != y.sa1_mismatch
            or not np.array_equal(x.row_permutation, y.row_permutation)
        ):
            return False
    return True


def _mapper(method):
    return FaultAwareMapper(row_method=method)


def _time_scenario(method, blocks, maps_per_step, repetitions):
    """Best-of-N seconds for the delta chain and the from-scratch loop.

    The base plan is built outside both timed sections — the scenario under
    test is the *re*-planning cost after each delta, which is where the two
    paths differ.
    """
    best_delta = best_cold = float("inf")
    delta_plans = cold_plans = None
    stats = None
    for _ in range(repetitions):
        mapper = _mapper(method)
        _, state = mapper.plan_blocks(blocks, maps_per_step[0])
        start = time.perf_counter()
        delta_plans = []
        for fault_maps in maps_per_step[1:]:
            mapping, state = mapper.replan_blocks(
                blocks, fault_maps, prev_state=state
            )
            delta_plans.append(mapping)
        best_delta = min(best_delta, time.perf_counter() - start)
        stats = mapper.cost_engine.stats

        start = time.perf_counter()
        cold_plans = [
            _mapper(method).map_blocks(blocks, fault_maps)
            for fault_maps in maps_per_step[1:]
        ]
        best_cold = min(best_cold, time.perf_counter() - start)
    for cold, delta in zip(cold_plans, delta_plans):
        assert _identical(cold, delta), "delta plan diverged from cold plan"
    return best_delta, best_cold, stats


def test_bench_delta_remap(run_once):
    scale = bench_scale()
    seed = bench_seed()
    sweep = SWEEP_CI if scale == "ci" else SWEEP_PAPER
    # Best-of-3 even at ci scale: the greedy delta chain is ~20 ms, so a
    # single noisy repetition can push a real ~7x speedup under the gate.
    repetitions = 3

    def run_sweep():
        results = {}
        for case_index, (num_blocks, num_crossbars) in enumerate(sweep):
            blocks, maps_per_step = _make_sequence(
                num_blocks, num_crossbars, seed + 31 * case_index
            )
            for method in METHODS:
                delta_s, cold_s, stats = _time_scenario(
                    method, blocks, maps_per_step, repetitions
                )
                pairs_grid = DELTA_STEPS * num_blocks * num_crossbars
                results[(num_blocks, num_crossbars, method)] = {
                    "delta_s": delta_s,
                    "cold_s": cold_s,
                    "speedup": cold_s / delta_s,
                    "reused_fraction": stats.delta_pairs_reused / pairs_grid,
                    "warm_hits": stats.warm_start_hits,
                }
        return results

    results = run_once(run_sweep)

    rows = []
    for (num_blocks, num_crossbars, method), r in results.items():
        rows.append(
            [
                f"{num_blocks}x{num_crossbars}",
                method,
                r["cold_s"] * 1e3,
                r["delta_s"] * 1e3,
                r["speedup"],
                f"{r['reused_fraction']:.0%}",
                r["warm_hits"],
            ]
        )
    # Acceptance gate: on the headline scenario every row method must re-plan
    # at least 5× faster through the delta chain than from scratch.  The gate
    # runs BEFORE record_result so a failing (e.g. noisy-machine) run can
    # never emit result artifacts that look canonical.
    for method in METHODS:
        headline = results[(*HEADLINE, method)]
        assert headline["speedup"] >= MIN_DELTA_SPEEDUP, (
            f"{method}: delta re-plan speedup {headline['speedup']:.1f}x "
            f"< {MIN_DELTA_SPEEDUP}x"
        )
        # Most of the pair grid must splice through untouched — that is the
        # mechanism the speedup comes from.
        assert headline["reused_fraction"] > 0.75

    record_result(
        "delta_remap",
        format_table(
            [
                "Blocks x crossbars",
                "Row method",
                "From-scratch (ms)",
                "Delta chain (ms)",
                "Speedup",
                "Pairs reused",
                "Warm hits",
            ],
            rows,
            title=(
                f"Progressive fault accumulation — {DELTA_STEPS} deltas of "
                f"{EXTRA_DENSITY:.1%} density into {MAPS_PER_DELTA} crossbars each"
            ),
        ),
        metrics={
            f"delta_remap.headline_{method}_speedup": results[
                (*HEADLINE, method)
            ]["speedup"]
            for method in METHODS
        }
        | {
            f"delta_remap.headline_{method}_delta_ms": results[
                (*HEADLINE, method)
            ]["delta_s"]
            * 1e3
            for method in METHODS
        },
    )
