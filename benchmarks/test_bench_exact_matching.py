"""Exact row-method throughput — per-pair solves vs. the batched stack solvers.

PR 1's cost engine vectorised the *greedy* row method end-to-end, but the
exact methods (``hungarian``, the paper's ``bsuitor``) kept calling one
scalar Python solver per (block, fault-map) pair — on a cold cache the
dedupe/skip machinery alone buys them almost nothing (random blocks against
random fault maps have no duplicates), so a 16 × 32 Hungarian mapping still
took seconds.  The lockstep batched solvers in
:mod:`repro.core.batch_solvers` close that gap.  This benchmark maps the same
batches through two paths per exact method:

* **seed** — :class:`reference.mapping.SeedLoopMapper`: the original
  ``B × M`` double loop, one scalar solve per pair;
* **engine (cold/warm, batched)** — the cost engine, the whole uncached
  pair stack solved by one lockstep Hungarian / b-Suitor run.

All paths must return identical mappings (exhaustively proven in
``tests/test_core_cost_engine.py``; spot-checked here).  The headline
configuration — 16 blocks × 32 crossbars at 10 % faulty cells, the same
shape the greedy benchmark gates — must show at least a 3× cold speedup of
the batched path over the seed loop for *both* exact methods.
"""

import time

import numpy as np

from repro.core.mapping import FaultAwareMapper
from repro.hardware.faults import FaultModel
from repro.utils.tabulate import format_table

from _bench_utils import bench_scale, bench_seed, record_result
from reference.mapping import SeedLoopMapper

CROSSBAR_SIZE = 32
BLOCK_DENSITY = 0.08
HEADLINE = (16, 32, 0.10)  # (blocks, crossbars, fault rate) — acceptance gate
SWEEP_CI = [HEADLINE]
SWEEP_PAPER = [
    (8, 16, 0.10),
    HEADLINE,
    (16, 32, 0.20),
]
METHODS = ("hungarian", "bsuitor")
MIN_COLD_SPEEDUP = 3.0


def _make_case(num_blocks, num_crossbars, fault_rate, seed):
    rng = np.random.default_rng(seed)
    blocks = [
        (rng.random((CROSSBAR_SIZE, CROSSBAR_SIZE)) < BLOCK_DENSITY).astype(float)
        for _ in range(num_blocks)
    ]
    fmaps = FaultModel(fault_rate, (9.0, 1.0), seed=seed + 1).generate(
        num_crossbars, CROSSBAR_SIZE, CROSSBAR_SIZE
    )
    return blocks, fmaps


def _time_path(make_mapper, blocks, fmaps, repetitions, reuse_mapper=False):
    """Best-of-N blocks-per-second of ``map_blocks`` (robust to timer noise)."""
    mapper = make_mapper() if reuse_mapper else None
    if reuse_mapper:
        mapper.map_blocks(blocks, fmaps)  # populate the cache
    best = float("inf")
    for _ in range(repetitions):
        active = mapper if reuse_mapper else make_mapper()
        start = time.perf_counter()
        mapping = active.map_blocks(blocks, fmaps)
        best = min(best, time.perf_counter() - start)
    return len(blocks) / best, mapping


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


def test_bench_exact_matching(run_once):
    scale = bench_scale()
    seed = bench_seed()
    sweep = SWEEP_CI if scale == "ci" else SWEEP_PAPER
    # The seed Hungarian path takes seconds per repetition, so it gets the
    # fewest; the measured interval is long enough for timer noise not to
    # matter.
    seed_reps, batch_reps = (1, 3) if scale == "ci" else (2, 6)

    def run_sweep():
        results = {}
        for case_index, case in enumerate(sweep):
            num_blocks, num_crossbars, fault_rate = case
            blocks, fmaps = _make_case(
                num_blocks, num_crossbars, fault_rate, seed + 17 * case_index
            )
            for method in METHODS:
                seed_bps, seed_mapping = _time_path(
                    lambda: SeedLoopMapper(row_method=method),
                    blocks, fmaps, seed_reps,
                )
                cold_bps, cold_mapping = _time_path(
                    lambda: FaultAwareMapper(row_method=method),
                    blocks, fmaps, batch_reps,
                )
                warm_bps, warm_mapping = _time_path(
                    lambda: FaultAwareMapper(row_method=method),
                    blocks, fmaps, batch_reps, reuse_mapper=True,
                )
                assert _identical(seed_mapping, cold_mapping)
                assert _identical(seed_mapping, warm_mapping)
                results[(method, case)] = {
                    "seed_bps": seed_bps,
                    "cold_bps": cold_bps,
                    "warm_bps": warm_bps,
                }
        return results

    results = run_once(run_sweep)

    rows = []
    for (method, (num_blocks, num_crossbars, fault_rate)), r in results.items():
        rows.append(
            [
                f"{method} {num_blocks}x{num_crossbars} @ {fault_rate:.0%}",
                r["seed_bps"],
                r["cold_bps"],
                r["warm_bps"],
                r["cold_bps"] / r["seed_bps"],
                r["warm_bps"] / r["seed_bps"],
            ]
        )
    metrics = {}
    for method in METHODS:
        r = results[(method, HEADLINE)]
        prefix = f"exact_matching.{method}"
        metrics[f"{prefix}_seed_blocks_per_s"] = r["seed_bps"]
        metrics[f"{prefix}_cold_blocks_per_s"] = r["cold_bps"]
        metrics[f"{prefix}_warm_blocks_per_s"] = r["warm_bps"]
        metrics[f"{prefix}_cold_speedup"] = r["cold_bps"] / r["seed_bps"]
        metrics[f"{prefix}_warm_speedup"] = r["warm_bps"] / r["seed_bps"]
    record_result(
        "exact_matching_throughput",
        format_table(
            [
                "Method / blocks x crossbars @ fault rate",
                "Seed (blocks/s)",
                "Engine batched cold (blocks/s)",
                "Engine batched warm (blocks/s)",
                "Cold speedup",
                "Warm speedup",
            ],
            rows,
            title=(
                "Exact row-method mapping throughput — per-pair solves vs. "
                "lockstep batched solvers"
            ),
        ),
        metrics=metrics,
    )

    # Acceptance gate: ≥3× cold speedup over the seed loop for both exact
    # methods at 16 blocks × 32 crossbars, 10 % faulty cells; the warm
    # (cached-refresh) path must not fall behind the cold path by more than
    # measurement noise.
    for method in METHODS:
        headline = results[(method, HEADLINE)]
        assert headline["cold_bps"] >= MIN_COLD_SPEEDUP * headline["seed_bps"], (
            f"{method}: batched cold speedup "
            f"{headline['cold_bps'] / headline['seed_bps']:.1f}x < "
            f"{MIN_COLD_SPEEDUP}x"
        )
        assert headline["warm_bps"] >= headline["cold_bps"] * 0.5
