"""Mapping throughput — seed per-pair loop vs. the batched cost engine.

Algorithm 1 runs once per mini-batch per epoch, so blocks-mapped-per-second
is the figure of merit for the pre-processing phase.  This benchmark maps the
same random batches through:

* **seed** — the original Python ``B × M`` double loop (two matmuls and one
  assignment solve per pair, all permutations materialised;
  :class:`reference.mapping.SeedLoopMapper`);
* **engine (cold)** — the batched :class:`MappingCostEngine` with an empty
  result cache (fresh mapper per repetition);
* **engine (warm)** — the same mapper re-mapping an already-seen batch, i.e.
  the per-epoch refresh scenario where the BIST map has not changed.

The sweep covers several batch sizes and fault rates; the headline
configuration (16 blocks × 32 crossbars at 10 % faulty cells) must show at
least a 10× cold speedup, and both paths must return identical mappings
(spot-checked here, exhaustively proven in ``tests/test_core_cost_engine.py``).
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
SWEEP_CI = [
    (4, 8, 0.05),
    (8, 16, 0.10),
    HEADLINE,
]
SWEEP_PAPER = SWEEP_CI + [
    (32, 64, 0.10),
    (16, 32, 0.20),
]
MIN_COLD_SPEEDUP = 10.0


def _seed_mapper():
    return SeedLoopMapper(row_method="greedy")


def _mapper():
    return FaultAwareMapper(row_method="greedy")


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
    return len(blocks) / best, best, mapping


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


def test_bench_mapping_throughput(run_once):
    scale = bench_scale()
    seed = bench_seed()
    sweep = SWEEP_CI if scale == "ci" else SWEEP_PAPER
    seed_reps, engine_reps = (2, 8) if scale == "ci" else (3, 12)

    def run_sweep():
        results = {}
        for case_index, (num_blocks, num_crossbars, fault_rate) in enumerate(sweep):
            blocks, fmaps = _make_case(
                num_blocks, num_crossbars, fault_rate, seed + 17 * case_index
            )
            seed_bps, seed_s, seed_mapping = _time_path(
                _seed_mapper, blocks, fmaps, seed_reps
            )
            cold_bps, cold_s, cold_mapping = _time_path(
                _mapper, blocks, fmaps, engine_reps
            )
            warm_bps, warm_s, warm_mapping = _time_path(
                _mapper, blocks, fmaps, engine_reps, reuse_mapper=True
            )
            assert _identical(seed_mapping, cold_mapping)
            assert _identical(seed_mapping, warm_mapping)
            results[(num_blocks, num_crossbars, fault_rate)] = {
                "seed_bps": seed_bps,
                "cold_bps": cold_bps,
                "warm_bps": warm_bps,
                "seed_s": seed_s,
                "cold_s": cold_s,
                "warm_s": warm_s,
            }
        return results

    results = run_once(run_sweep)

    rows = []
    for (num_blocks, num_crossbars, fault_rate), r in results.items():
        rows.append(
            [
                f"{num_blocks}x{num_crossbars} @ {fault_rate:.0%}",
                r["seed_bps"],
                r["cold_bps"],
                r["warm_bps"],
                r["cold_bps"] / r["seed_bps"],
                r["warm_bps"] / r["seed_bps"],
            ]
        )
    record_result(
        "mapping_throughput",
        format_table(
            [
                "Blocks x crossbars @ fault rate",
                "Seed (blocks/s)",
                "Engine cold (blocks/s)",
                "Engine warm (blocks/s)",
                "Cold speedup",
                "Warm speedup",
            ],
            rows,
            title="Algorithm 1 mapping throughput — seed loop vs. batched cost engine",
        ),
        metrics={
            "mapping_throughput.headline_seed_blocks_per_s": results[HEADLINE]["seed_bps"],
            "mapping_throughput.headline_cold_blocks_per_s": results[HEADLINE]["cold_bps"],
            "mapping_throughput.headline_warm_blocks_per_s": results[HEADLINE]["warm_bps"],
            "mapping_throughput.headline_cold_speedup": (
                results[HEADLINE]["cold_bps"] / results[HEADLINE]["seed_bps"]
            ),
            "mapping_throughput.headline_warm_speedup": (
                results[HEADLINE]["warm_bps"] / results[HEADLINE]["seed_bps"]
            ),
        },
    )

    # Acceptance gate: ≥10× cold speedup at 16 blocks × 32 crossbars, 10 %
    # faulty cells; the warm (cached-refresh) path must not be slower than
    # the cold path by more than measurement noise.
    headline = results[HEADLINE]
    assert headline["cold_bps"] >= MIN_COLD_SPEEDUP * headline["seed_bps"], (
        f"cold engine speedup "
        f"{headline['cold_bps'] / headline['seed_bps']:.1f}x < {MIN_COLD_SPEEDUP}x"
    )
    assert headline["warm_bps"] >= headline["cold_bps"] * 0.5
    # Every swept configuration must at least clearly beat the seed loop.
    for r in results.values():
        assert r["cold_bps"] > 2.0 * r["seed_bps"]
