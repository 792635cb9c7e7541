"""Device-lifetime scenario: accuracy and remap cost vs write cycles.

The paper's post-deployment experiment (Fig. 6) injects a fixed 1 % extra
density over one training run.  This driver extends that axis to the device's
*lifetime*: an :class:`~repro.hardware.endurance.EnduranceModel` translates
cumulative write cycles into population fault density, a
:class:`~repro.hardware.endurance.WearOutSchedule` places checkpoints along
that curve, and at every checkpoint the accumulated fault delta is injected,
the BIST re-scans, and the FaRe mapping is **re-planned incrementally**
(:meth:`~repro.pipeline.trainer.FaultyTrainer.apply_fault_delta` with
``replan=True`` → delta-planning through the mapping stack).  Recorded per
checkpoint: test accuracy on the degraded hardware, plan cost/SA1 mismatch,
the delta-planning work counters, and re-plan wall time (optionally alongside
a from-scratch re-plan of the same maps for the speedup column).

The scenario only became tractable with incremental re-planning: a lifetime
sweep re-plans after every wear-out step, and from-scratch planning at every
checkpoint is exactly the cost wall ROADMAP item 1 describes.

Two drivers:

* :func:`run_lifetime` — train once at the base density, then walk the
  wear-out schedule (accuracy + cost curves).
* :func:`run_density_grid` — no training; walk a grid of cumulative fault
  densities, each level's plan delta-patched from the previous level's
  (the cross-density figure-grid mode; plan-cost curves only).

CLI: ``python -m repro.experiments lifetime`` (see ``--help``).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.strategies import FaReStrategy, build_strategy
from repro.experiments import configs
from repro.experiments.sweeps import build_hardware
from repro.graph.datasets import load_dataset
from repro.hardware.endurance import EnduranceModel, WearOutSchedule
from repro.hardware.faults import population_density
from repro.pipeline.trainer import FaultyTrainer
from repro.utils.logging import get_logger
from repro.utils.tabulate import format_table

logger = get_logger("experiments.lifetime")

#: Column headers matching :meth:`LifetimeResult.rows`.
LIFETIME_HEADERS: Tuple[str, ...] = (
    "Writes",
    "Density",
    "Test acc",
    "Plan cost",
    "SA1",
    "Maps Δ",
    "Pairs re-solved",
    "Pairs reused",
    "Warm hits",
    "Replan ms",
    "Cold ms",
)

#: Column headers matching :meth:`DensityGridResult.rows`.
DENSITY_GRID_HEADERS: Tuple[str, ...] = (
    "Density",
    "Plan cost",
    "SA1",
    "Maps Δ",
    "Pairs re-solved",
    "Pairs reused",
    "Warm hits",
    "Replan ms",
    "Cold ms",
)


@dataclass
class LifetimeCheckpoint:
    """Measurements taken after one wear-out step and incremental re-plan."""

    writes: float
    cumulative_density: float
    measured_density: float
    test_accuracy: float
    plan_cost: float
    plan_sa1_mismatch: float
    maps_changed: int
    pairs_resolved: int
    pairs_reused: int
    warm_hits: int
    warm_fallbacks: int
    replan_seconds: float
    cold_replan_seconds: Optional[float] = None


@dataclass
class LifetimeResult:
    """Accuracy/remap-cost-vs-write-cycles curve of one device lifetime."""

    dataset: str
    model: str
    row_method: str
    base_density: float
    base_test_accuracy: float
    checkpoints: List[LifetimeCheckpoint] = field(default_factory=list)

    def rows(self) -> List[List]:
        rows = []
        for cp in self.checkpoints:
            rows.append(
                [
                    f"{cp.writes:.3g}",
                    f"{cp.measured_density:.2%}",
                    f"{cp.test_accuracy:.4f}",
                    f"{cp.plan_cost:.0f}",
                    f"{cp.plan_sa1_mismatch:.0f}",
                    cp.maps_changed,
                    cp.pairs_resolved,
                    cp.pairs_reused,
                    cp.warm_hits,
                    f"{cp.replan_seconds * 1e3:.1f}",
                    (
                        f"{cp.cold_replan_seconds * 1e3:.1f}"
                        if cp.cold_replan_seconds is not None
                        else "-"
                    ),
                ]
            )
        return rows


@dataclass
class DensityGridResult:
    """Plan-cost curve across fault densities, delta-patched level to level."""

    dataset: str
    row_method: str
    checkpoints: List[LifetimeCheckpoint] = field(default_factory=list)

    def rows(self) -> List[List]:
        rows = []
        for cp in self.checkpoints:
            rows.append(
                [
                    f"{cp.measured_density:.2%}",
                    f"{cp.plan_cost:.0f}",
                    f"{cp.plan_sa1_mismatch:.0f}",
                    cp.maps_changed,
                    cp.pairs_resolved,
                    cp.pairs_reused,
                    cp.warm_hits,
                    f"{cp.replan_seconds * 1e3:.1f}",
                    (
                        f"{cp.cold_replan_seconds * 1e3:.1f}"
                        if cp.cold_replan_seconds is not None
                        else "-"
                    ),
                ]
            )
        return rows


# --------------------------------------------------------------------------- #
# Shared machinery
# --------------------------------------------------------------------------- #
def _build_trainer(
    dataset: str,
    model: str,
    scale: str,
    seed: int,
    epochs: Optional[int],
    base_density: float,
    sa_ratio: Tuple[float, float],
    row_method: Optional[str],
) -> FaultyTrainer:
    graph = load_dataset(dataset, scale=scale, seed=seed)
    config = configs.training_config(dataset, scale, seed=seed, epochs=epochs)
    hardware = build_hardware(scale, base_density, sa_ratio, seed=seed)
    kwargs = configs.strategy_kwargs_for("fare", scale)
    if row_method is not None:
        kwargs["row_method"] = row_method
    strategy = build_strategy("fare", **kwargs)
    return FaultyTrainer(
        graph=graph,
        model_name=model,
        strategy=strategy,
        config=config,
        hardware=hardware,
        post_deployment=None,
        replan_on_rescan=True,
    )


def _delta_counter(stats_before: dict, stats_after: dict, key: str) -> int:
    return int(stats_after.get(key, 0.0) - stats_before.get(key, 0.0))


def _wear_step(
    trainer: FaultyTrainer,
    increment: float,
    compare_cold: bool,
) -> Tuple[LifetimeCheckpoint, object]:
    """Apply one wear-out density increment and measure the re-plan."""
    before = dict(trainer.strategy.mapping_engine_stats() or {})
    started = time.perf_counter()
    report = trainer.apply_fault_delta(increment, replan=True)
    replan_seconds = time.perf_counter() - started
    after = dict(trainer.strategy.mapping_engine_stats() or {})

    cold_seconds = None
    if compare_cold:
        mapper = trainer.strategy.mapper
        cold = FaReStrategy(
            sa1_weight=mapper.sa1_weight,
            row_method=mapper.row_method,
            assignment_method=mapper.assignment_method,
            prune_crossbars=mapper.prune_crossbars,
            relax_sparsest_block=mapper.relax_sparsest_block,
        )
        started = time.perf_counter()
        cold.plan_adjacency(
            trainer.blocks_per_batch,
            report.fault_maps,
            trainer.adjacency_crossbar_ids,
            trainer.hardware.config.crossbar_rows,
        )
        cold_seconds = time.perf_counter() - started

    plans = trainer.plans or []
    checkpoint = LifetimeCheckpoint(
        writes=0.0,  # filled in by the caller
        cumulative_density=0.0,  # filled in by the caller
        measured_density=population_density(report.fault_maps),
        test_accuracy=float("nan"),  # filled in by the caller when trained
        plan_cost=float(sum(plan.total_cost for plan in plans)),
        plan_sa1_mismatch=float(sum(plan.total_sa1_mismatch for plan in plans)),
        maps_changed=_delta_counter(before, after, "mapping_delta_maps_changed"),
        pairs_resolved=_delta_counter(before, after, "mapping_pairs_total"),
        pairs_reused=_delta_counter(before, after, "mapping_delta_pairs_reused"),
        warm_hits=_delta_counter(before, after, "mapping_warm_start_hits"),
        warm_fallbacks=_delta_counter(
            before, after, "mapping_warm_start_fallbacks"
        ),
        replan_seconds=replan_seconds,
        cold_replan_seconds=cold_seconds,
    )
    return checkpoint, report


# --------------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------------- #
def run_lifetime(
    dataset: str = "ppi",
    model: str = "gcn",
    scale: str = "ci",
    seed: int = 0,
    epochs: Optional[int] = None,
    base_density: float = 0.01,
    sa_ratio: Tuple[float, float] = configs.SA_RATIO_9_1,
    row_method: Optional[str] = None,
    schedule: Optional[WearOutSchedule] = None,
    compare_cold: bool = False,
) -> LifetimeResult:
    """Train once, then walk a wear-out schedule with incremental re-plans.

    Training runs at ``base_density`` (the pre-deployment fault level).  Each
    subsequent checkpoint injects the endurance model's density increment,
    re-scans, delta-re-plans, and evaluates test accuracy on the degraded
    hardware — producing the accuracy/remap-cost-vs-write-cycles curve.
    ``compare_cold=True`` additionally times a from-scratch re-plan of the
    same fault maps at every checkpoint (the speedup denominator): a fresh
    :class:`FaReStrategy`, whose timing includes capturing its plan context.
    """
    if schedule is None:
        schedule = WearOutSchedule.log_spaced(EnduranceModel())
    trainer = _build_trainer(
        dataset, model, scale, seed, epochs, base_density, sa_ratio, row_method
    )
    trainer.train()
    result = LifetimeResult(
        dataset=dataset,
        model=model,
        row_method=trainer.strategy.mapper.row_method,
        base_density=base_density,
        base_test_accuracy=trainer.evaluate("test"),
    )
    cumulative = schedule.cumulative_densities()
    for writes, density, increment in zip(
        schedule.write_checkpoints, cumulative, schedule.density_increments()
    ):
        checkpoint, _ = _wear_step(trainer, increment, compare_cold)
        checkpoint.writes = writes
        checkpoint.cumulative_density = density
        checkpoint.test_accuracy = trainer.evaluate("test")
        result.checkpoints.append(checkpoint)
        logger.info(
            "lifetime checkpoint writes=%.3g density=%.3f acc=%.4f replan=%.1fms",
            writes,
            checkpoint.measured_density,
            checkpoint.test_accuracy,
            checkpoint.replan_seconds * 1e3,
        )
    return result


def run_density_grid(
    dataset: str = "ppi",
    model: str = "gcn",
    scale: str = "ci",
    seed: int = 0,
    base_density: float = 0.01,
    densities: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10),
    sa_ratio: Tuple[float, float] = configs.SA_RATIO_9_1,
    row_method: Optional[str] = None,
    compare_cold: bool = False,
) -> DensityGridResult:
    """Cross-density plan grid, each level delta-patched from the previous.

    No training: the trainer is used only for its preprocessing (real
    adjacency blocks + BIST machinery).  Starting from the ``base_density``
    plan, each target density is reached by injecting the difference and
    delta-re-planning — the incremental analogue of planning every density
    level of a figure grid from scratch.
    """
    trainer = _build_trainer(
        dataset, model, scale, seed, epochs=1, base_density=base_density,
        sa_ratio=sa_ratio, row_method=row_method,
    )
    result = DensityGridResult(
        dataset=dataset, row_method=trainer.strategy.mapper.row_method
    )
    previous = base_density
    for target in densities:
        increment = target - previous
        if increment < 0:
            raise ValueError(
                f"densities must be non-decreasing from base_density; "
                f"{target} < {previous}"
            )
        checkpoint, _ = _wear_step(trainer, increment, compare_cold)
        checkpoint.cumulative_density = target
        result.checkpoints.append(checkpoint)
        previous = target
    return result


def format_lifetime(result: LifetimeResult) -> str:
    title = (
        f"Device lifetime — {result.dataset} ({result.model.upper()}), "
        f"row method {result.row_method}, base density "
        f"{result.base_density:.1%}, base test accuracy "
        f"{result.base_test_accuracy:.4f}"
    )
    return format_table(list(LIFETIME_HEADERS), result.rows(), title=title)


def format_density_grid(result: DensityGridResult) -> str:
    title = (
        f"Cross-density plan grid (delta-patched) — {result.dataset}, "
        f"row method {result.row_method}"
    )
    return format_table(list(DENSITY_GRID_HEADERS), result.rows(), title=title)


# --------------------------------------------------------------------------- #
# CLI (dispatched from ``python -m repro.experiments lifetime``)
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments lifetime",
        description=(
            "Device-lifetime scenario: wear-out faults accumulate along an "
            "endurance curve and the FaRe mapping is re-planned incrementally "
            "at every checkpoint."
        ),
    )
    parser.add_argument("--dataset", default="ppi")
    parser.add_argument("--model", default="gcn")
    parser.add_argument("--scale", default="ci", choices=("ci", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--base-density", type=float, default=0.01)
    parser.add_argument(
        "--row-method",
        default=None,
        choices=("greedy", "hungarian", "bsuitor"),
        help="override the scale's default inner row-assignment solver",
    )
    parser.add_argument(
        "--checkpoints", type=int, default=6, help="wear-out checkpoints"
    )
    parser.add_argument("--start-probability", type=float, default=0.002)
    parser.add_argument("--stop-probability", type=float, default=0.2)
    parser.add_argument("--mean-endurance", type=float, default=1e9)
    parser.add_argument("--sigma", type=float, default=0.5)
    parser.add_argument(
        "--compare-cold",
        action="store_true",
        help="also time a from-scratch re-plan at every checkpoint",
    )
    parser.add_argument(
        "--grid",
        action="store_true",
        help="run the cross-density plan grid instead (no training)",
    )
    parser.add_argument(
        "--densities",
        type=float,
        nargs="+",
        default=[0.02, 0.04, 0.06, 0.08, 0.10],
        help="target densities for --grid (non-decreasing)",
    )
    return parser


def cli_main(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.grid:
        result = run_density_grid(
            dataset=args.dataset,
            model=args.model,
            scale=args.scale,
            seed=args.seed,
            base_density=args.base_density,
            densities=args.densities,
            row_method=args.row_method,
            compare_cold=args.compare_cold,
        )
        print(format_density_grid(result))
        return 0
    model = EnduranceModel(
        mean_endurance=args.mean_endurance, sigma_log10=args.sigma
    )
    schedule = WearOutSchedule.log_spaced(
        model,
        start_probability=args.start_probability,
        stop_probability=args.stop_probability,
        num_checkpoints=args.checkpoints,
    )
    result = run_lifetime(
        dataset=args.dataset,
        model=args.model,
        scale=args.scale,
        seed=args.seed,
        epochs=args.epochs,
        base_density=args.base_density,
        row_method=args.row_method,
        schedule=schedule,
        compare_cold=args.compare_cold,
    )
    print(format_lifetime(result))
    return 0
